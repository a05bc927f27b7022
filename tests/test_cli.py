"""End-to-end CLI flows on a two-scene copy of the synthetic data."""

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import graphtcn.data
from graphtcn import cli
from graphtcn.checkpoint import load_checkpoint
from graphtcn.cli import main
from graphtcn.config import ModelConfig
from graphtcn.dumps import format_trajectory_dump
from graphtcn.training import model_from_checkpoint

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "data" / "synthetic"
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    data.mkdir()
    for scene in ("linear", "crossing"):
        shutil.copy(SOURCE / f"{scene}.txt", data / f"{scene}.txt")
    cfg = ModelConfig(embed_dim=6, gal1_heads=1, gal1_out=3, gal2_heads=1,
                      gal2_out=4, tcn_channels=3, tcn_layers=1, tcn_kernel=2,
                      noise_dim=2, samples=2, epochs=2, lr=1e-3, seed=4)
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(cfg.to_text())
    return root, data, cfg_path


@pytest.fixture(scope="module")
def trained(workdir):
    root, data, cfg_path = workdir
    ckpt = root / "model.ckpt"
    rc = main(["train", "--data", str(data), "--leave-out", "crossing",
               "--config", str(cfg_path), "--out", str(ckpt)])
    assert rc == 0
    return ckpt


def test_train_writes_artifacts(workdir, trained, capsys):
    root, _, _ = workdir
    assert trained.is_file()
    assert (root / "model.ckpt.log").is_file()
    log = (root / "model.ckpt.log").read_text()
    assert len(log.strip().split("\n")) == 2  # one line per epoch


def test_train_seed_flag_overrides_config(workdir):
    root, data, cfg_path = workdir
    out = root / "seeded.ckpt"
    rc = main(["train", "--data", str(data), "--leave-out", "crossing",
               "--config", str(cfg_path), "--seed", "123", "--out", str(out)])
    assert rc == 0
    assert load_checkpoint(out).config.seed == 123


def test_train_on_a_scene_with_a_far_frame(workdir, trained):
    # A training scene with one more record at frame 10**20 trains to the
    # same checkpoint: that record joins no window.
    root, data, cfg_path = workdir
    far = root / "far_data"
    shutil.copytree(data, far)
    with open(far / "linear.txt", "a", encoding="utf-8") as fh:
        fh.write("100000000000000000000 1 0.0 0.0\n")
    out = root / "far.ckpt"
    rc = main(["train", "--data", str(far), "--leave-out", "crossing",
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == trained.read_bytes()


def test_train_unknown_scene(workdir, capsys):
    root, data, cfg_path = workdir
    rc = main(["train", "--data", str(data), "--leave-out", "nope",
               "--config", str(cfg_path), "--out", str(root / "x.ckpt")])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_unknown_leave_out_scene_same_error(workdir, trained, capsys):
    # train and eval build the split with one helper, so they reject an
    # unknown held-out scene with the same line.
    root, data, cfg_path = workdir
    line = "error: scene 'nope' not in ['crossing', 'linear']\n"
    rc = main(["train", "--data", str(data), "--leave-out", "nope",
               "--config", str(cfg_path), "--out", str(root / "x.ckpt")])
    assert rc == 2 and capsys.readouterr().err == line
    rc = main(["eval", "--ckpt", str(trained), "--data", str(data), "--leave-out", "nope"])
    assert rc == 2 and capsys.readouterr().err == line


def test_negative_seed_exits_2(workdir, trained, capsys):
    root, data, cfg_path = workdir
    for argv in (["train", "--config", str(cfg_path), "--out", str(root / "neg.ckpt")],
                 ["eval", "--ckpt", str(trained), "--samples", "2"]):
        rc = main(argv + ["--data", str(data), "--leave-out", "crossing", "--seed", "-1"])
        assert rc == 2 and capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (root / "neg.ckpt").exists()


def test_negative_seed_rejected_before_the_data_is_read(tmp_path, capsys):
    # A missing data directory would be reported if the seed were checked
    # only after the training scenes are read.
    rc = main(["train", "--data", str(tmp_path / "no_such_dir"), "--leave-out", "x",
               "--seed", "-1", "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2 and capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("argv,error", [
    (["eval", "--leave-out", "x", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["eval", "--leave-out", "x", "--samples", "0"], "need m >= 1, got 0"),
    (["bench", "--repeats", "2", "--warmup", "-3"], "warmup must be >= 0, got -3"),
    (["bench", "--repeats", "0"], "repeats must be >= 1, got 0"),
    (["bench", "--repeats", "2", "--samples", "0"], "need m >= 1, got 0"),
])
def test_number_flags_checked_before_any_input_is_read(tmp_path, capsys, argv, error):
    # The checkpoint and the data directory are both missing; either would
    # be reported if the flag were checked only after they are read.
    rc = main(argv + ["--ckpt", str(tmp_path / "ghost.ckpt"), "--data", str(tmp_path / "nodata")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == f"error: {error}\n" and captured.out == ""


@pytest.mark.parametrize("argv,error", [
    (["train", "--out", "no_dir/m.ckpt"], "'no_dir/m.ckpt': 'no_dir' is not a directory"),
    (["train", "--out", "a_dir"], "'a_dir': it is a directory"),
    (["train", "--out", "m.ckpt", "--log", "no_dir/m.log"],
     "'no_dir/m.log': 'no_dir' is not a directory"),
    (["dump-attn", "--window-id", "crossing:0", "--out", "a_dir"], "'a_dir': it is a directory"),
    (["plot", "--kind", "attention", "--in", "ghost.txt", "--out", "no_dir/a.svg"],
     "'no_dir/a.svg': 'no_dir' is not a directory"),
], ids=["train-out-in-missing-dir", "train-out-is-a-dir", "train-log-in-missing-dir",
        "dump-attn-out-is-a-dir", "plot-out-in-missing-dir"])
def test_output_path_checked_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv, error):
    # The inputs (data, checkpoint, dump) are all missing: they would be
    # reported, or every epoch trained, if outputs were checked at write.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()
    inputs = {"train": ["--data", "no_data", "--leave-out", "x"],
              "dump-attn": ["--ckpt", "ghost.ckpt", "--data", "no_data"], "plot": []}
    assert main(argv + inputs[argv[0]]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {error}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a_dir"]


def test_eval_checks_dump_path_before_the_table(workdir, trained, capsys):
    root, data, _ = workdir
    dump = root / "no_dir" / "traj.txt"
    rc = main(["eval", "--ckpt", str(trained), "--data", str(data),
               "--leave-out", "crossing", "--samples", "2", "--dump-traj", str(dump)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {str(dump)!r}: {str(dump.parent)!r} is not a directory\n")


def test_eval_prints_table(workdir, trained, capsys):
    _, data, _ = workdir
    rc = main(["eval", "--ckpt", str(trained), "--data", str(data),
               "--leave-out", "crossing", "--samples", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crossing" in out
    assert "best of 3" in out
    assert "AVG" in out


def test_eval_dump_traj(workdir, trained, capsys, monkeypatch):
    # The dump is the evaluated first window with its own draws: the
    # held-out scene is read once, and window 0 is predicted once, on a
    # fresh generator seeded with --seed.
    root, data, _ = workdir
    dump = root / "traj.txt"
    parsed = []
    parse = graphtcn.data.parse_trajectory_file
    monkeypatch.setattr(graphtcn.data, "parse_trajectory_file",
                        lambda path: parsed.append(Path(path).name) or parse(path))
    rc = main(["eval", "--ckpt", str(trained), "--data", str(data),
               "--leave-out", "crossing", "--samples", "2", "--seed", "5",
               "--dump-traj", str(dump)])
    assert rc == 0
    assert parsed == ["crossing.txt"]
    text = dump.read_text()
    assert text.startswith("# trajectory dump")
    assert "\nS\t" in text
    model = model_from_checkpoint(load_checkpoint(trained))
    w0 = graphtcn.data.load_scene_windows(data, "crossing", model.cfg.t_obs, model.cfg.t_pred)[0]
    pred_set, _ = model.predict(w0, 2, np.random.default_rng(5))
    assert dump.read_bytes() == format_trajectory_dump(w0, pred_set, model.cfg.t_obs).encode()


def test_eval_missing_ckpt(workdir, capsys):
    root, data, _ = workdir
    rc = main(["eval", "--ckpt", str(root / "ghost.ckpt"), "--data", str(data),
               "--leave-out", "crossing"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_bench_reports_timing(workdir, trained, capsys):
    _, data, _ = workdir
    rc = main(["bench", "--ckpt", str(trained), "--data", str(data),
               "--repeats", "2", "--warmup", "1", "--scene", "crossing"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-pedestrian median" in out
    assert "crossing" in out


def test_bench_rejects_negative_warmup(workdir, trained, capsys):
    _, data, _ = workdir
    rc = main(["bench", "--ckpt", str(trained), "--data", str(data),
               "--repeats", "2", "--warmup", "-3", "--scene", "crossing"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "warmup must be >= 0, got -3" in captured.err
    assert "runs" not in captured.out


# Run in a fresh interpreter. A meta-path finder records the thread
# variables at numpy's first import, before any module of it loads.
_THREAD_PROBE = """
import json, os, sys

class Probe:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen is None:
            Probe.seen = dict(os.environ)
        return None

sys.meta_path.insert(0, Probe())
import graphtcn.cli as cli
numpy_after_import = "numpy" in sys.modules
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "numpy_after_import": numpy_after_import,
                  "seen": {v: (Probe.seen or {}).get(v) for v in cli._THREAD_VARS}}))
"""


def test_bench_pins_threads_before_numpy_loads(workdir, trained):
    # perfbench imports _THREAD_VARS from graphtcn.cli before numpy for
    # the same reason: BLAS reads these variables once, at load.
    _, data, _ = workdir
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["bench", "--ckpt", str(trained), "--data", str(data),
            "--repeats", "1", "--warmup", "0"]
    proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["numpy_after_import"] is False
    assert len(result["seen"]) == 5
    assert all(value == "1" for value in result["seen"].values()), result["seen"]


def test_bench_scene_without_a_window(trained, tmp_path, capsys):
    # Ten frames of one walker: too short for an 8 + 12 step window.
    (tmp_path / "short.txt").write_text("".join(f"{f * 10} 1 {f} 0\n" for f in range(10)))
    rc = main(["bench", "--ckpt", str(trained), "--data", str(tmp_path),
               "--repeats", "2", "--scene", "short"])
    assert rc == 2
    assert capsys.readouterr().err == "error: scene 'short' has no window of 20 steps\n"


def test_dump_attn_and_plots(workdir, trained, capsys):
    root, data, _ = workdir
    attn = root / "attn.txt"
    rc = main(["dump-attn", "--ckpt", str(trained), "--data", str(data),
               "--window-id", "crossing:0", "--out", str(attn)])
    assert rc == 0
    assert attn.read_text().startswith("# attention dump")

    traj = root / "traj.txt"
    if not traj.is_file():
        main(["eval", "--ckpt", str(trained), "--data", str(data),
              "--leave-out", "crossing", "--samples", "2",
              "--dump-traj", str(traj)])
        capsys.readouterr()
    for kind, src in [("trajectories", traj), ("samples", traj), ("attention", attn)]:
        out = root / f"{kind}.svg"
        assert main(["plot", "--kind", kind, "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")


def test_dump_attn_bad_window_id(workdir, trained, capsys):
    root, data, _ = workdir
    rc = main(["dump-attn", "--ckpt", str(trained), "--data", str(data),
               "--window-id", "crossing", "--out", str(root / "y.txt")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --window-id must be SCENE:START_FRAME\n"
    rc = main(["dump-attn", "--ckpt", str(trained), "--data", str(data),
               "--window-id", "crossing:999", "--out", str(root / "y.txt")])
    assert rc == 2
    assert capsys.readouterr().err == "error: no window starting at 999 in crossing; have [0]\n"
    assert not (root / "y.txt").exists()


def test_dump_attn_non_integer_start_frame(workdir, trained, capsys):
    root, data, _ = workdir
    rc = main(["dump-attn", "--ckpt", str(trained), "--data", str(data),
               "--window-id", "crossing:x", "--out", str(root / "y.txt")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --window-id must be SCENE:START_FRAME\n"


def test_dump_attn_refuses_attention_free_variant(workdir, capsys):
    root, data, cfg_path = workdir
    text = cfg_path.read_text().replace("variant = graphtcn", "variant = no_efgat")
    alt_cfg = root / "no_att.cfg"
    alt_cfg.write_text(text)
    ckpt = root / "no_att.ckpt"
    assert main(["train", "--data", str(data), "--leave-out", "crossing",
                 "--config", str(alt_cfg), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    rc = main(["dump-attn", "--ckpt", str(ckpt), "--data", str(data),
               "--window-id", "crossing:0", "--out", str(root / "z.txt")])
    assert rc == 2
    assert capsys.readouterr().err == "error: this checkpoint's variant has no attention to dump\n"


def test_plot_rejects_unknown_kind(workdir):
    root, _, _ = workdir
    with pytest.raises(SystemExit):
        main(["plot", "--kind", "heatmap", "--in", "x", "--out", "y"])


@pytest.mark.parametrize("kind,row", [
    ("attention", "P\tx\t0\t1.0\t2.0"),
    ("trajectories", "O\t0\t0\tnan\t2.0"),
    ("samples", b"O\t0\t0\t1.0\t\xff"),
])
def test_plot_bad_dump_exits_2(workdir, capsys, kind, row):
    root, _, _ = workdir
    dump = root / f"bad_{kind}.txt"
    if isinstance(row, bytes):
        dump.write_bytes(row + b"\n")
    else:
        dump.write_text(row + "\n")
    rc = main(["plot", "--kind", kind, "--in", str(dump), "--out", str(root / "bad.svg")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1: " in err or "byte offset 10" in err


def test_non_utf8_scene_or_config_exits_2(workdir, capsys):
    root, data, cfg_path = workdir
    bad_cfg = root / "latin1.cfg"
    bad_cfg.write_bytes(cfg_path.read_bytes() + b"# caf\xe9\n")
    bad_data = root / "latin1_data"
    shutil.copytree(data, bad_data)
    (bad_data / "linear.txt").write_bytes(b"# caf\xe9\n")
    for d, cfg in ((data, bad_cfg), (bad_data, cfg_path)):
        rc = main(["train", "--data", str(d), "--leave-out", "crossing",
                   "--config", str(cfg), "--out", str(root / "u.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid UTF-8 at byte offset" in err
        assert ("latin1.cfg" in err) == (cfg is bad_cfg) and ("linear.txt" in err) == (d is bad_data)


def test_bad_config_key_reported(workdir, capsys):
    root, data, _ = workdir
    bad = root / "bad.cfg"
    bad.write_text("not_a_key = 3\n")
    rc = main(["train", "--data", str(data), "--leave-out", "crossing",
               "--config", str(bad), "--out", str(root / "w.ckpt")])
    assert rc == 2
    assert "not_a_key" in capsys.readouterr().err


def test_ci_runs_the_readme_quick_start_verbatim():
    # Each graphtcn command in README's Quick start, continuation lines
    # included, is a whole run of lines in CI's quick-start step once the
    # step's indentation is removed, so neither side changes alone.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start\n", 1)[1].split("```console\n", 1)[1].split("```", 1)[0]
    commands = re.findall(r"^graphtcn (?:.*\\\n)*.*", block, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = workflow.split("- name: README quick start\n", 1)[1].split("run: |\n", 1)[1]
    step = "\n" + textwrap.dedent(step.split("\n      - ", 1)[0])
    assert len(commands) == 5
    assert [c for c in commands if f"\n{c}\n" not in step] == []
