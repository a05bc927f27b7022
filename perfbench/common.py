"""Workload definitions, seeded input generation and the calibration kernel.

Shared by ``run.py`` (which generates the inputs) and ``worker.py`` (which
runs one workload). numpy is imported inside functions so that importing
this module never loads it before the thread-count variables are set.
"""

from __future__ import annotations

import time
from pathlib import Path

# Every workload is a closed loop with one caller: the next call starts
# only after the previous one returned.
# ``kernel_ref_ms`` is the calibration kernel's time at reference speed on
# that workload's windows (see below).
WORKLOADS = {
    # README / test_09 regime: dispatch-bound, op count is what moves it.
    "infer_small": {"kind": "infer", "peds": (8,), "samples": 4, "windows": 4,
                    "kernel_ref_ms": 2.0},
    # Paper's best-of-20 protocol at the top of the N sweep: the N^2
    # attention arrays and decoding are at their largest share.
    "infer_crowd": {"kind": "infer", "peds": (64,), "samples": 20, "windows": 4,
                    "kernel_ref_ms": 16.0},
    # The only workload with tape, backward and Adam active. The multiset
    # of crowd sizes is fixed so that every seed does the same work.
    "train_mixed": {"kind": "train", "peds": (2, 4, 6, 8, 10, 12, 14, 16),
                    "samples": 20, "windows": 5, "kernel_ref_ms": 3.3},
}

FRAME_STEP = 10  # ModelConfig default: rows are written on this frame grid


def scene_names(spec) -> list:
    return [f"scene_n{n:02d}" for n in spec["peds"]]


def generate_tracks(rng, n_peds: int, n_steps: int):
    """Walkers at 0.3-0.6 m per step with small heading noise, [N, T, 2]."""
    import numpy as np

    start = rng.uniform(0.0, 12.0, (n_peds, 2))
    heading = rng.uniform(0.0, 2.0 * np.pi, n_peds)
    speed = rng.uniform(0.3, 0.6, n_peds)
    vel = np.stack([speed * np.cos(heading), speed * np.sin(heading)], axis=1)
    steps = vel[:, None, :] + rng.normal(0.0, 0.03, (n_peds, n_steps - 1, 2))
    tracks = np.empty((n_peds, n_steps, 2))
    tracks[:, 0] = start
    tracks[:, 1:] = start[:, None, :] + np.cumsum(steps, axis=1)
    return tracks


def write_scene(path: Path, tracks):
    """``frame ped x y`` rows; repr keeps every coordinate bit-exact."""
    lines = []
    for t in range(tracks.shape[1]):
        for i in range(tracks.shape[0]):
            x, y = tracks[i, t]
            lines.append(f"{t * FRAME_STEP} {i} {float(x)!r} {float(y)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def scene_tracks(seed: int, spec, t_total: int) -> dict:
    """Scene name -> tracks; the same seed gives the same tracks."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n_steps = t_total + spec["windows"] - 1
    return {name: generate_tracks(rng, n, n_steps)
            for name, n in zip(scene_names(spec), spec["peds"])}


def expected_windows(tracks: dict, t_total: int) -> list:
    """Window positions the loader must produce, in load order.

    Every walker is present in every frame, so a scene of F steps yields
    the F - t_total + 1 windows starting at each step, all walkers in id
    order.
    """
    out = []
    for name in sorted(tracks):
        tr = tracks[name]
        for s in range(tr.shape[1] - t_total + 1):
            out.append(tr[:, s:s + t_total])
    return out


# ---------------------------------------------------------------------------
# Calibration kernel
#
# Host speed on a shared 2-core machine swings by up to 2x over seconds;
# CPU time tracks wall time, so it is not steal. Each timed call is
# bracketed by runs of a fixed kernel: a dispatch part, whose mix of
# small-object creation, closures, shape checks and small numpy calls
# resembles the autodiff ops, plus the oracle's numpy forward of the
# workload's largest window, whose arrays have the sizes the program works
# on. Memory-bound work slows differently from dispatch-bound work, so the
# kernel needs both. A call's time is reported at reference speed:
# raw * kernel_ref_ms / kernel time. The kernel is benchmark code, so no
# change to the program can move it.

_CAL = {}


class _Node:
    __slots__ = ("data", "back")


def _cal_op(np, x, w):
    if x.data.shape[-1] != w.shape[0]:
        raise ValueError("calibration shapes")
    out = _Node()
    out.data = np.tanh(x.data @ w) * 0.5 + x.data

    def back(g, x=x, w=w):
        return g @ w.T

    out.back = back
    return out


def calibrate(forward=None) -> float:
    """Run the kernel once (with ``forward()`` if given); wall time in ms."""
    import numpy as np

    if not _CAL:
        _CAL["x"] = np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16)
        _CAL["w"] = np.linspace(-0.5, 0.5, 16 * 16).reshape(16, 16)
    x = _Node()
    x.data = _CAL["x"]
    w = _CAL["w"]
    t0 = time.perf_counter()
    for _ in range(150):
        x = _cal_op(np, x, w)
        x.data = x.data / (1.0 + float(abs(x.data).max()))
    if forward is not None:
        forward()
    return (time.perf_counter() - t0) * 1e3
