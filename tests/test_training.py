"""Training loop determinism, divergence handling, evaluation, benchmark."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from graphtcn.checkpoint import save_checkpoint
from graphtcn.config import VARIANTS, ModelConfig
from graphtcn.data import Split, discover_scenes, hold_out, load_scene_windows, load_windows
from graphtcn.errors import ConfigError, ContractError, DataError, TrainingDivergedError
from graphtcn.model import GraphTCN
from graphtcn.optim import Adam
from graphtcn.training import (
    BenchReport,
    TrainState,
    benchmark_inference,
    evaluate_dataset,
    train,
)
from oracles import evaluate_oracle

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data" / "synthetic"


def fast_cfg(**over):
    base = dict(
        embed_dim=6, gal1_heads=1, gal1_out=3, gal2_heads=1, gal2_out=4,
        tcn_channels=3, tcn_layers=2, tcn_kernel=2, noise_dim=2, samples=2,
        epochs=2, lr=1e-3, seed=5,
    )
    base.update(over)
    return ModelConfig(**base)


SPLIT = Split(train_scenes=("linear",), test_scene="crossing")


def test_train_returns_log_per_epoch():
    res = train(fast_cfg(epochs=3), SPLIT, DATA_DIR)
    assert len(res.log_lines) == 3
    for i, line in enumerate(res.log_lines, start=1):
        cols = line.split("\t")
        assert cols[0] == str(i)
        assert len(cols) == 4
        float(cols[1]), float(cols[2]), float(cols[3])


def test_plain_variant_logs_zero_kl():
    res = train(fast_cfg(), SPLIT, DATA_DIR)
    for line in res.log_lines:
        assert line.split("\t")[3] == "0.0"


def test_training_moves_parameters():
    cfg = fast_cfg()
    res = train(cfg, SPLIT, DATA_DIR)
    fresh = GraphTCN(fast_cfg())
    moved = [
        name for name, _ in fresh.params.items()
        if not np.array_equal(res.model.params[name].data, fresh.params[name].data)
    ]
    assert moved  # at least some parameters updated


def test_rerun_bit_identical(tmp_path):
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    logs = []
    for p in paths:
        res = train(fast_cfg(), SPLIT, DATA_DIR, out_path=p, log_path=str(p) + ".log")
        logs.append(res.log_lines)
    assert logs[0] == logs[1]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert Path(str(paths[0]) + ".log").read_text() == Path(str(paths[1]) + ".log").read_text()


def test_progress_callback_sees_every_line():
    seen = []
    res = train(fast_cfg(), SPLIT, DATA_DIR, progress=seen.append)
    assert seen == res.log_lines


def test_empty_training_set_rejected():
    with pytest.raises(ConfigError):
        train(fast_cfg(), Split(train_scenes=(), test_scene="linear"), DATA_DIR)


def test_epoch_over_no_windows_rejected_before_any_state_changes():
    # An epoch of no steps has no mean loss to log, so it is refused by
    # name: no log line, no parameter or noise draw moves.
    state = TrainState(fast_cfg())
    params = {name: t.data.copy() for name, t in state.model.params.items()}
    noise = state.noise_rng.bit_generator.state
    with pytest.raises(ContractError, match="^run_epoch needs at least one window$"):
        state.run_epoch([])
    assert state.epoch == 0 and state.log_lines == [] and state.log_text() == ""
    assert state.noise_rng.bit_generator.state == noise
    assert all(np.array_equal(t.data, params[name]) for name, t in state.model.params.items())


# Two training windows, one per scene.
TWO_WINDOWS = Split(train_scenes=("linear", "crossing"), test_scene="bench8")


def train_windows(cfg):
    return load_windows(DATA_DIR, TWO_WINDOWS.train_scenes, cfg.t_obs, cfg.t_pred,
                        stride=cfg.stride, frame_step=cfg.frame_step)


@pytest.mark.parametrize("variant", VARIANTS)
def test_state_stepped_by_hand_equals_train(tmp_path, variant):
    # k calls of run_epoch are train() with epochs = k: the same log lines
    # and checkpoint bytes. The KL weight switches after epoch 1, so the
    # latent variant's loss reads the epoch number.
    cfg = fast_cfg(variant=variant, epochs=3, kl_switch_epoch=1)
    res = train(cfg, TWO_WINDOWS, DATA_DIR, out_path=tmp_path / "train.ckpt")
    state = TrainState(cfg)
    assert state.epoch == 0
    windows = train_windows(cfg)
    lines = [state.run_epoch(windows) for _ in range(cfg.epochs)]
    assert state.epoch == cfg.epochs
    assert lines == state.log_lines == res.log_lines
    assert state.log_text() == res.log_text()
    save_checkpoint(tmp_path / "hand.ckpt", state.model.params, state.model.cfg)
    assert (tmp_path / "hand.ckpt").read_bytes() == (tmp_path / "train.ckpt").read_bytes()


def test_training_loop_keeps_what_perfbench_patches(monkeypatch):
    # perfbench replaces these names from outside (perfbench/tracing.py by
    # module attribute, its TrainHooks on the classes), so each must stay
    # where it looks. TrainHooks times a step from the noise draw to the
    # end of Adam.step and counts the progress lines as epochs.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.ENTRY_POINTS
               if attr not in vars(owner)]
    assert missing == []

    events = []

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Adam, "__init__", recorded("adam", Adam.__init__))
    monkeypatch.setattr(GraphTCN, "draw_noise", recorded("draw", GraphTCN.draw_noise))
    monkeypatch.setattr(Adam, "step", recorded("step", Adam.step))
    cfg = fast_cfg(epochs=3)
    seen = []
    res = train(cfg, TWO_WINDOWS, DATA_DIR, progress=recorded("progress", seen.append))
    assert len(train_windows(cfg)) == 2
    assert events == ["adam"] + (["draw", "step"] * 2 + ["progress"]) * cfg.epochs
    assert seen == res.log_lines
    assert [line.split("\t")[0] for line in seen] == ["1", "2", "3"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_location():
    # An absurd learning rate overflows the decoder weights after the
    # first step; the next epoch's loss is non-finite.
    cfg = fast_cfg(variant="no_efgat", lr=1e300, epochs=5)
    with pytest.raises(TrainingDivergedError) as err:
        train(cfg, SPLIT, DATA_DIR)
    e = err.value
    assert e.epoch == 2
    assert e.window_id.startswith("linear:")
    assert not np.isfinite(e.value)
    assert isinstance(e, RuntimeError)


def test_latent_variant_trains_and_logs_kl():
    res = train(fast_cfg(variant="graphtcn_g", future_embed_dim=3), SPLIT, DATA_DIR)
    kl = float(res.log_lines[0].split("\t")[3])
    assert kl >= 0.0


# Evaluation -----------------------------------------------------------------

def write_freeze_scene(dir_path):
    # Two pedestrians walk for the observed 8 steps, then stand still, so a
    # predict-the-origin model scores exactly zero error.
    lines = []
    for ped, (x0, y0, vx, vy) in enumerate([(0, 0, 0.5, 0.25), (3, 1, -0.25, 0.5)], start=1):
        for t in range(20):
            s = min(t, 7)
            lines.append(f"{t * 10} {ped} {x0 + vx * s:.4f} {y0 + vy * s:.4f}")
    (dir_path / "freeze.txt").write_text("\n".join(lines) + "\n")


def test_origin_predictor_scores_zero_on_frozen_future(tmp_path):
    write_freeze_scene(tmp_path)
    model = GraphTCN(fast_cfg())
    for _, t in model.params.items():
        t.data[:] = 0.0
    split = Split(train_scenes=("linear",), test_scene="freeze")
    report = evaluate_dataset(model, split, tmp_path, m=2)
    scene, ade, fde, n = report.rows[0]
    assert scene == "freeze"
    assert ade == 0.0 and fde == 0.0
    assert n >= 1
    assert "freeze\t0.00 / 0.00" in report.format_table()


def test_eval_report_table_shape():
    model = GraphTCN(fast_cfg())
    report = evaluate_dataset(model, SPLIT, DATA_DIR, m=3, seed=1)
    table = report.format_table()
    lines = table.strip().split("\n")
    assert lines[0].startswith("scene\t")
    assert "best of 3" in lines[0]
    assert lines[-1].startswith("AVG\t")
    assert report.avg_ade == report.rows[0][1]


def test_eval_missing_windows_raises(tmp_path):
    (tmp_path / "tiny.txt").write_text("0 1 0.0 0.0\n10 1 1.0 1.0\n")
    model = GraphTCN(fast_cfg())
    split = Split(train_scenes=("linear",), test_scene="tiny")
    with pytest.raises(DataError):
        evaluate_dataset(model, split, tmp_path, m=2)


def test_eval_seed_reproducible():
    model = GraphTCN(fast_cfg())
    a = evaluate_dataset(model, SPLIT, DATA_DIR, m=4, seed=9)
    b = evaluate_dataset(model, SPLIT, DATA_DIR, m=4, seed=9)
    assert a.rows == b.rows


def write_mixed_scene(dir_path):
    # One pedestrian from frame 0, a second from 100 and a third from 150,
    # all to 390: windows of N = 1, then 2, then 3.
    rng = np.random.default_rng(11)
    lines = []
    for ped, first in ((1, 0), (2, 100), (3, 150)):
        x, y = rng.normal(size=2) * 3.0
        vx, vy = rng.normal(size=2) * 0.3
        for frame in range(first, 400, 10):
            t = frame / 10 + rng.normal() * 0.05
            lines.append(f"{frame} {ped} {x + vx * t:.4f} {y + vy * t:.4f}")
    (dir_path / "mixed.txt").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("hidden", [0, 16])
@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluation_matches_the_per_window_oracle(variant, hidden, tmp_path):
    # evaluate_dataset runs each bucket of equal-N windows in one forward;
    # the oracle runs one window at a time, drawing each window's noise in
    # load order. Every synthetic scene, and one whose N = 1 windows sit
    # beside N = 2 and 3; each window's best-of-2 ADE and FDE, and the
    # first window's samples.
    write_mixed_scene(tmp_path)
    cfg = fast_cfg(variant=variant, decoder_hidden=hidden)
    model = GraphTCN(cfg)
    params = model.params.state_arrays()
    sizes = set()
    for data_dir in (DATA_DIR, tmp_path):
        scenes = discover_scenes(data_dir)
        for scene in scenes:
            report = evaluate_dataset(model, hold_out(scenes, scene), data_dir, m=2, seed=4)
            windows = load_windows(data_dir, [scene], cfg.t_obs, cfg.t_pred)
            want = evaluate_oracle(params, [w.positions for w in windows], cfg, 2, 4)
            assert [row[0] for row in report.windows] == [w.window_id for w in windows]
            for (_, ade, fde), (_, ade_o, fde_o) in zip(report.windows, want):
                assert abs(ade - ade_o) <= 1e-12 and abs(fde - fde_o) <= 1e-12
            first_window, first = report.first
            assert first_window.window_id == windows[0].window_id
            np.testing.assert_allclose(first.trajectories, want[0][0], rtol=0, atol=1e-12)
            sizes |= {(data_dir, w.n_peds) for w in windows}
    assert {n for d, n in sizes if d == tmp_path} == {1, 2, 3}


@pytest.mark.parametrize("variant", ["graphtcn", "graphtcn_g"])
def test_bucketed_samples_equal_one_predict_per_window(variant):
    # zara1_like's N interleaves 2, 3 and 4, so its buckets do not run in
    # load order. Each window's samples must still be those of one predict
    # per window on one generator: noise drawn a bucket at a time would
    # give windows each other's draws.
    model = GraphTCN(fast_cfg(variant=variant))
    windows = load_windows(DATA_DIR, ["zara1_like"], model.cfg.t_obs, model.cfg.t_pred)
    sizes = [w.n_peds for w in windows]
    assert set(sizes) == {2, 3, 4} and sizes != sorted(sizes)
    got, sample = {}, model.sample

    def recording(bucket, noise):
        trajectories, attn = sample(bucket, noise)
        got.update((i, trajectories.data[:, j]) for j, i in enumerate(bucket.index))
        return trajectories, attn

    model.sample = recording
    evaluate_dataset(model, hold_out(discover_scenes(DATA_DIR), "zara1_like"), DATA_DIR,
                     m=4, seed=7)
    del model.sample
    assert sorted(got) == list(range(len(windows)))
    rng = np.random.default_rng(7)
    for i, window in enumerate(windows):
        want = model.predict(window, 4, rng)[0].trajectories
        np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12, err_msg=window.window_id)


def test_non_finite_prediction_names_the_first_such_window():
    # Decoder weights this close to the float64 limit overflow in a few
    # windows only. The first of them in load order is named, though its
    # bucket (N = 4) runs after that of a later bad window (N = 2).
    model = GraphTCN(fast_cfg())
    model.params["dec.out.W"].data[...] *= 7e307
    windows = load_windows(DATA_DIR, ["zara1_like"], model.cfg.t_obs, model.cfg.t_pred)
    rng = np.random.default_rng(1)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = [model.sample(w, model.decoder.noise(rng, 2, w.n_peds))[0].data for w in windows]
        bad = [w for w, s in zip(windows, samples) if not np.isfinite(s).all()]
        assert bad and bad[0].n_peds != windows[0].n_peds
        assert any(w.n_peds == windows[0].n_peds for w in bad)
        message = f"^non-finite prediction in window {re.escape(bad[0].window_id)}$"
        with pytest.raises(ContractError, match=message):
            evaluate_dataset(model, hold_out(discover_scenes(DATA_DIR), "zara1_like"), DATA_DIR,
                             m=2, seed=1)


# Benchmark --------------------------------------------------------------------

def test_bench_report_identities():
    runs = [0.004, 0.002, 0.003, 0.001, 0.005]
    rep = BenchReport(per_run_seconds=runs, n_peds=8, samples=4, warmup=2)
    assert rep.total_seconds == sum(runs)
    assert rep.per_ped_mean == rep.total_seconds / (5 * 8)
    assert rep.per_ped_median == 0.003 / 8
    text = rep.format_report()
    assert "per-pedestrian median" in text
    assert "8" in text


def test_benchmark_runs_and_counts():
    cfg = fast_cfg()
    model = GraphTCN(cfg)
    window = load_scene_windows(DATA_DIR, "bench8", cfg.t_obs, cfg.t_pred)[0]
    rep = benchmark_inference(model, window, repeats=3, m=2, warmup=1)
    assert len(rep.per_run_seconds) == 3
    assert rep.n_peds == 8
    assert all(dt > 0 for dt in rep.per_run_seconds)
    assert "numpy" in rep.platform_note


def test_benchmark_rejects_zero_repeats():
    cfg = fast_cfg()
    model = GraphTCN(cfg)
    window = load_scene_windows(DATA_DIR, "bench8", cfg.t_obs, cfg.t_pred)[0]
    with pytest.raises(ConfigError):
        benchmark_inference(model, window, repeats=0)


def test_benchmark_rejects_negative_warmup():
    cfg = fast_cfg()
    model = GraphTCN(cfg)
    window = load_scene_windows(DATA_DIR, "bench8", cfg.t_obs, cfg.t_pred)[0]
    with pytest.raises(ConfigError, match="warmup must be >= 0, got -3"):
        benchmark_inference(model, window, repeats=2, warmup=-3)
    assert benchmark_inference(model, window, repeats=1, m=1, warmup=0).warmup == 0
