"""Training loop, leave-one-out evaluation, and the inference benchmark.

Everything here is deterministic given (seed, config, data): windows are
visited in load order, noise comes from one seeded generator, and the
loss log records full-precision floats, so two runs on one platform
produce identical logs and checkpoints.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .config import ModelConfig
from .data import Split, load_windows
from .errors import ConfigError, DataError, TrainingDivergedError
from .metrics import evaluate_min_of_m
from .model import GraphTCN, check_samples
from .optim import Adam
from .tensor import Tape, backward


def model_from_checkpoint(ckpt: Checkpoint) -> GraphTCN:
    model = GraphTCN(ckpt.config)
    model.params.load_arrays(ckpt.arrays)
    return model


@dataclass
class TrainResult:
    model: GraphTCN
    log_lines: list  # one per epoch: "epoch\tloss\tvariety\tkl"

    def log_text(self) -> str:
        return "\n".join(self.log_lines) + "\n" if self.log_lines else ""


def train(cfg: ModelConfig, split: Split, data_dir, out_path=None, log_path=None,
          progress=None) -> TrainResult:
    """Train on the split's training scenes; optionally write artifacts.

    One window is one optimization step (batch size 1). The noise
    generator is separate from the init generator so architecture changes
    do not shift the training randomness stream.
    """
    windows = load_windows(data_dir, split.train_scenes, cfg.t_obs, cfg.t_pred,
                           stride=cfg.stride, frame_step=cfg.frame_step)
    if not windows:
        raise ConfigError(f"no training windows in {data_dir} for {split.train_scenes}")
    model = GraphTCN(cfg)
    opt = Adam(model.params, lr=cfg.lr)
    noise_rng = np.random.default_rng(cfg.seed + 1)

    log_lines = []
    for epoch in range(1, cfg.epochs + 1):
        loss_sum = variety_sum = kl_sum = 0.0
        for window in windows:
            noise = model.draw_noise(noise_rng, window.n_peds)
            with Tape() as tape:
                loss, parts = model.window_loss(window, epoch, noise)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        epoch, f"{window.scene_name}:{window.start_frame}", value
                    )
                model.params.zero_grads()
                backward(loss, tape)
            opt.step()
            loss_sum += value
            variety_sum += parts["variety"]
            kl_sum += parts["kl"]
        n = len(windows)
        log_lines.append(f"{epoch}\t{loss_sum / n!r}\t{variety_sum / n!r}\t{kl_sum / n!r}")
        if progress is not None:
            progress(log_lines[-1])

    result = TrainResult(model=model, log_lines=log_lines)
    if out_path is not None:
        save_checkpoint(out_path, model.params, cfg)
    if log_path is not None:
        Path(log_path).write_text(result.log_text(), encoding="utf-8")
    return result


@dataclass
class MetricsReport:
    """Per-scene best-of-M displacement errors plus their average, and the
    first evaluated window with its PredictionSet."""

    rows: list  # (scene, ade, fde, n_windows)
    samples: int
    first: tuple = None  # (window, PredictionSet)

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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    check_samples(m)


def evaluate_dataset(model: GraphTCN, split: Split, data_dir, m: int,
                     seed: int = 0) -> MetricsReport:
    """Best-of-M ADE/FDE on the held-out scene, averaged over windows."""
    check_eval_args(m, seed)
    cfg = model.cfg
    windows = load_windows(data_dir, [split.test_scene], cfg.t_obs, cfg.t_pred,
                           stride=cfg.stride, frame_step=cfg.frame_step)
    if not windows:
        raise DataError(f"no evaluation windows for scene {split.test_scene!r}")
    rng = np.random.default_rng(seed)
    ades, fdes = [], []
    first = None
    for window in windows:
        pred_set, _ = model.predict(window, m, rng)
        if first is None:
            first = (window, pred_set)
        a, f = evaluate_min_of_m(pred_set, model.ground_truth(window))
        ades.append(a)
        fdes.append(f)
    row = (split.test_scene, sum(ades) / len(ades), sum(fdes) / len(fdes), len(windows))
    return MetricsReport(rows=[row], samples=m, first=first)


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
    check_samples(m)


def benchmark_inference(model: GraphTCN, window, repeats: int, m: int = 4,
                        warmup: int = 10) -> BenchReport:
    """Time the full pipeline (features -> encode -> M decodes) per window.

    The timed region matches what a deployment would run per scene step,
    including feature building. Warm-up runs are executed and discarded;
    the noise stream is seeded with 0.
    Caller is responsible for single-threaded numpy (the CLI pins thread
    counts before importing it).
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
