"""Line-oriented text dumps for attention and trajectories.

Attention dump, tab-separated:
    # comment header
    P <step> <ped_index> <x> <y>                     observed positions
    A <layer> <head> <step> <i> <j> <weight>         attention entries

Trajectory dump, tab-separated:
    O <ped_index> <step> <x> <y>                     observed
    G <ped_index> <step> <x> <y>                     ground-truth future
    S <sample> <ped_index> <step> <x> <y>            predicted future

Floats are written with repr for lossless round trips; steps index the
resampled timeline of the window (observation starts at 0).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .data import SequenceWindow
from .decoders import PredictionSet
from .errors import ParseError


def format_attention_dump(window: SequenceWindow, attn_record: list, t_obs: int) -> str:
    """Attention record (list per layer of [heads, T, N, N]) to text."""
    lines = [
        "# attention dump",
        f"# window {window.scene_name}:{window.start_frame} peds {window.n_peds} steps {t_obs}",
        "# P step ped x y / A layer head step i j weight",
    ]
    for t in range(t_obs):
        for i in range(window.n_peds):
            x, y = window.positions[i, t]
            lines.append(f"P\t{t}\t{i}\t{float(x)!r}\t{float(y)!r}")
    for layer_idx, layer in enumerate(attn_record):
        heads, steps, n, _ = layer.shape
        for k in range(heads):
            for t in range(steps):
                for i in range(n):
                    for j in range(n):
                        lines.append(
                            f"A\t{layer_idx}\t{k}\t{t}\t{i}\t{j}\t{float(layer[k, t, i, j])!r}"
                        )
    return "\n".join(lines) + "\n"


def _fields(parts: list, n_index: int, line_no: int) -> list:
    """A row's fields after its kind: ``n_index`` integer indices, then
    finite numbers (coordinates or a weight)."""
    out = []
    for k, token in enumerate(parts[1:]):
        try:
            value = int(token) if k < n_index else float(token)
        except ValueError:
            what = "an integer index" if k < n_index else "a number"
            raise ParseError(f"line {line_no}: {token!r} is not {what}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {line_no}: non-finite value {token!r}")
        out.append(value)
    return out


def parse_attention_dump(text: str):
    """Returns (positions {step: {ped: (x, y)}}, entries list of tuples)."""
    positions: dict = {}
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "P" and len(parts) == 5:
            t, ped, x, y = _fields(parts, 2, line_no)
            positions.setdefault(t, {})[ped] = (x, y)
        elif parts[0] == "A" and len(parts) == 7:
            entries.append(tuple(_fields(parts, 5, line_no)))
        else:
            raise ParseError(f"line {line_no}: unrecognized dump row {raw!r}")
    return positions, entries


def format_trajectory_dump(window: SequenceWindow, pred_set, t_obs: int) -> str:
    """Observed + ground truth + optional predicted samples to text."""
    lines = [
        "# trajectory dump",
        f"# window {window.scene_name}:{window.start_frame} peds {window.n_peds}",
        "# O ped step x y / G ped step x y / S sample ped step x y",
    ]
    n, t_total = window.n_peds, window.t_total
    for i in range(n):
        for t in range(t_obs):
            x, y = window.positions[i, t]
            lines.append(f"O\t{i}\t{t}\t{float(x)!r}\t{float(y)!r}")
    for i in range(n):
        for t in range(t_obs, t_total):
            x, y = window.positions[i, t]
            lines.append(f"G\t{i}\t{t}\t{float(x)!r}\t{float(y)!r}")
    if pred_set is not None:
        for m in range(pred_set.sample_count):
            for i in range(n):
                for t in range(pred_set.trajectories.shape[2]):
                    x, y = pred_set.trajectories[m, i, t]
                    lines.append(f"S\t{m}\t{i}\t{t_obs + t}\t{float(x)!r}\t{float(y)!r}")
    return "\n".join(lines) + "\n"


def parse_trajectory_dump(text: str):
    """Returns (observed, ground_truth, samples) as nested dicts of points.

    observed/ground_truth: {ped: [(step, x, y), ...]};
    samples: {sample: {ped: [(step, x, y), ...]}}.
    """
    observed: dict = {}
    gt: dict = {}
    samples: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        kind = parts[0]
        if kind in ("O", "G") and len(parts) == 5:
            ped, t, x, y = _fields(parts, 2, line_no)
            target = observed if kind == "O" else gt
            target.setdefault(ped, []).append((t, x, y))
        elif kind == "S" and len(parts) == 6:
            m, ped, t, x, y = _fields(parts, 3, line_no)
            samples.setdefault(m, {}).setdefault(ped, []).append((t, x, y))
        else:
            raise ParseError(f"line {line_no}: unrecognized dump row {raw!r}")
    for d in (observed, gt):
        for pts in d.values():
            pts.sort()
    for per_ped in samples.values():
        for pts in per_ped.values():
            pts.sort()
    return observed, gt, samples


def write_attention_dump(path, window: SequenceWindow, attn_record: list, t_obs: int):
    Path(path).write_text(format_attention_dump(window, attn_record, t_obs), encoding="utf-8")


def write_trajectory_dump(path, window: SequenceWindow, pred_set, t_obs: int):
    Path(path).write_text(format_trajectory_dump(window, pred_set, t_obs), encoding="utf-8")
