"""Training loop, leave-one-out evaluation, and the inference benchmark.

A training run is one ``TrainState``, which ``train`` advances one epoch
at a time. Given (seed, config, data) it is deterministic: windows are
visited in load order, noise comes from one seeded generator, and the loss
log holds full-precision floats, so two runs give identical bytes.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .config import ModelConfig, check_key
from .data import Split, bucket_windows, load_windows
from .errors import ConfigError, ContractError, DataError, TrainingDivergedError
from .metrics import PredictionSet, min_of_m
from .model import GraphTCN
from .optim import Adam
from .tensor import Tape, backward


def model_from_checkpoint(ckpt: Checkpoint) -> GraphTCN:
    model = GraphTCN(ckpt.config)
    model.params.load_arrays(ckpt.arrays)
    return model


class TrainState:
    """A run so far: the model (store and config), Adam (moments, step count),
    a noise generator apart from the init one, and one log line per epoch."""

    def __init__(self, cfg: ModelConfig):
        self.model = GraphTCN(cfg)
        self.opt = Adam(self.model.params, lr=cfg.lr)
        self.noise_rng = np.random.default_rng(cfg.seed + 1)
        self.log_lines = []  # one per epoch: "epoch\tloss\tvariety\tkl"

    @property
    def epoch(self) -> int:
        return len(self.log_lines)

    def run_epoch(self, windows) -> str:
        """One step per window (batch size 1); appends the epoch's log line and returns it."""
        if not windows:
            raise ContractError("run_epoch needs at least one window")
        model, epoch = self.model, self.epoch + 1
        loss_sum = variety_sum = kl_sum = 0.0
        for window in windows:
            noise = model.draw_noise(self.noise_rng, window.n_peds)
            with Tape() as tape:
                loss, parts = model.window_loss(window, epoch, noise)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDivergedError(epoch, window.window_id, value)
                model.params.zero_grads()
                backward(loss, tape)
            self.opt.step()
            loss_sum += value
            variety_sum += parts["variety"]
            kl_sum += parts["kl"]
        n = len(windows)
        self.log_lines.append(f"{epoch}\t{loss_sum / n!r}\t{variety_sum / n!r}\t{kl_sum / n!r}")
        return self.log_lines[-1]

    def log_text(self) -> str:
        return "\n".join(self.log_lines) + "\n" if self.log_lines else ""


def train(cfg: ModelConfig, split: Split, data_dir, out_path=None, log_path=None,
          progress=None) -> TrainState:
    """Run cfg.epochs epochs on the training scenes; optionally save checkpoint and log."""
    windows = load_windows(data_dir, split.train_scenes, cfg.t_obs, cfg.t_pred,
                           stride=cfg.stride, frame_step=cfg.frame_step)
    if not windows:
        raise ConfigError(f"no training windows in {data_dir} for {split.train_scenes}")
    state = TrainState(cfg)
    while state.epoch < cfg.epochs:
        line = state.run_epoch(windows)
        if progress is not None:
            progress(line)
    if out_path is not None:
        save_checkpoint(out_path, state.model.params, state.model.cfg)
    if log_path is not None:
        Path(log_path).write_text(state.log_text(), encoding="utf-8")
    return state


@dataclass
class MetricsReport:
    """Per-scene best-of-M displacement errors plus their average, each
    window's errors, and the first evaluated window with its PredictionSet."""

    rows: list  # (scene, ade, fde, n_windows)
    samples: int
    first: tuple = None  # (window, PredictionSet)
    windows: list = None  # (window_id, ade, fde) per window, in load order

    @property
    def avg_ade(self) -> float:
        return sum(r[1] for r in self.rows) / len(self.rows)

    @property
    def avg_fde(self) -> float:
        return sum(r[2] for r in self.rows) / len(self.rows)

    def format_table(self) -> str:
        lines = [f"scene\tADE / FDE (meters, best of {self.samples})\twindows"]
        for scene, a, f, n in self.rows:
            lines.append(f"{scene}\t{a:.2f} / {f:.2f}\t{n}")
        lines.append(f"AVG\t{self.avg_ade:.2f} / {self.avg_fde:.2f}\t"
                     f"{sum(r[3] for r in self.rows)}")
        return "\n".join(lines) + "\n"


def check_eval_args(m: int, seed: int):
    """evaluate_dataset's checks of its numbers, which need no input read."""
    check_key("seed", seed)
    check_key("samples", m)


def evaluate_dataset(model: GraphTCN, split: Split, data_dir, m: int,
                     seed: int = 0) -> MetricsReport:
    """Best-of-M ADE/FDE on the held-out scene: each window's least mean
    error over its M samples, then the mean of that over windows.

    Windows with equal N run as one bucket: one encode and one decode each.
    The noise is drawn window by window in load order from one generator,
    as one ``predict`` per window would draw it, so no window's samples
    depend on the buckets. A non-finite prediction raises a ContractError
    naming the first such window."""
    check_eval_args(m, seed)
    cfg = model.cfg
    windows = load_windows(data_dir, [split.test_scene], cfg.t_obs, cfg.t_pred,
                           stride=cfg.stride, frame_step=cfg.frame_step)
    if not windows:
        raise DataError(f"no evaluation windows for scene {split.test_scene!r}")
    rng = np.random.default_rng(seed)
    noise = [model.decoder.noise(rng, m, w.n_peds) for w in windows]
    n = len(windows)
    ades, fdes, finite = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    first = None
    for bucket in bucket_windows(windows):
        index = bucket.index
        trajs = model.sample(bucket, np.stack([noise[i] for i in index], axis=1))[0].data
        finite[index] = np.isfinite(trajs).reshape(m, len(index), -1).all(axis=(0, 2))
        ades[index], fdes[index] = min_of_m(trajs, model.ground_truth(bucket))
        if first is None:   # the first bucket starts with window 0
            first = trajs[:, 0]
    if not finite.all():
        bad = windows[int(np.argmin(finite))]
        raise ContractError(f"non-finite prediction in window {bad.window_id}")
    ades, fdes = ades.tolist(), fdes.tolist()
    row = (split.test_scene, sum(ades) / n, sum(fdes) / n, n)
    return MetricsReport(rows=[row], samples=m, first=(windows[0], PredictionSet(first)),
                         windows=[(w.window_id, a, f) for w, a, f in zip(windows, ades, fdes)])


@dataclass
class BenchReport:
    """Wall-clock accounting for batch-size-1 inference."""

    per_run_seconds: list
    n_peds: int
    samples: int
    warmup: int
    platform_note: str = field(default="")

    @property
    def repeats(self) -> int:
        return len(self.per_run_seconds)

    @property
    def total_seconds(self) -> float:
        return sum(self.per_run_seconds)

    @property
    def per_ped_mean(self) -> float:
        return self.total_seconds / (self.repeats * self.n_peds)

    @property
    def per_ped_median(self) -> float:
        return statistics.median(self.per_run_seconds) / self.n_peds

    def format_report(self) -> str:
        return (
            f"runs\t{self.repeats} (after {self.warmup} warmup)\n"
            f"pedestrians\t{self.n_peds}\n"
            f"samples per run\t{self.samples}\n"
            f"total wall time\t{self.total_seconds:.6f} s\n"
            f"per-pedestrian mean\t{self.per_ped_mean:.6f} s\n"
            f"per-pedestrian median\t{self.per_ped_median:.6f} s\n"
            f"platform\t{self.platform_note}\n"
        )


def check_bench_args(repeats: int, m: int, warmup: int):
    """benchmark_inference's checks of its numbers, which need no input read."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    check_key("samples", m)


def benchmark_inference(model: GraphTCN, window, repeats: int, m: int = 4,
                        warmup: int = 10) -> BenchReport:
    """Time the full pipeline (features -> encode -> M decodes) per window.

    The timed region matches what a deployment would run per scene step,
    including feature building. Warm-up runs are executed and discarded;
    the noise stream is seeded with 0. The caller pins numpy to one thread
    (the CLI sets the thread counts before importing it).
    """
    check_bench_args(repeats, m, warmup)
    rng = np.random.default_rng(0)
    for _ in range(warmup):
        model.predict(window, m, rng)
    per_run = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.predict(window, m, rng)
        per_run.append(time.perf_counter() - t0)
    note = (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"single-thread requested")
    return BenchReport(per_run_seconds=per_run, n_peds=window.n_peds, samples=m,
                       warmup=warmup, platform_note=note)
