"""Training loop determinism, divergence handling, evaluation, benchmark."""

from pathlib import Path

import numpy as np
import pytest

from graphtcn.config import ModelConfig
from graphtcn.data import SequenceWindow, Split, load_scene_windows
from graphtcn.errors import ConfigError, DataError, TrainingDivergedError
from graphtcn.model import GraphTCN
from graphtcn.training import (
    BenchReport,
    benchmark_inference,
    evaluate_dataset,
    train,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "synthetic"


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
