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
resampled timeline of the window (observation starts at 0). The parsers
read lines with the shared ``errors.content_lines``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .data import SequenceWindow
from .decoders import PredictionSet
from .errors import ParseError, content_lines


def format_attention_dump(window: SequenceWindow, attn_record: list, t_obs: int) -> str:
    """Attention record (list per layer of [heads, T, N, N]) to text."""
    lines = [
        "# attention dump",
        f"# window {window.scene_name}:{window.start_frame} peds {window.n_peds} steps {t_obs}",
        "# P step ped x y / A layer head step i j weight",
    ]
    for t, i in np.ndindex(t_obs, window.n_peds):
        x, y = window.positions[i, t]
        lines.append(f"P\t{t}\t{i}\t{float(x)!r}\t{float(y)!r}")
    for layer_idx, layer in enumerate(attn_record):
        for (k, t, i, j), w in np.ndenumerate(layer):
            lines.append(f"A\t{layer_idx}\t{k}\t{t}\t{i}\t{j}\t{float(w)!r}")
    return "\n".join(lines) + "\n"


def _rows(text: str, kinds: dict):
    """Yield (kind, fields) for each line ``content_lines`` yields. ``kinds``
    maps a row kind to (field count, index count): the fields after the kind
    are that many integer indices, then finite numbers (coordinates or a weight)."""
    for line_no, line in content_lines(text):
        kind, *tokens = line.split("\t")
        n_fields, n_index = kinds.get(kind, (None, 0))
        if len(tokens) != n_fields:
            raise ParseError(f"line {line_no}: unrecognized dump row {line!r}")
        fields = []
        for k, token in enumerate(tokens):
            try:
                value = int(token) if k < n_index else float(token)
            except ValueError:
                what = "an integer index" if k < n_index else "a number"
                raise ParseError(f"line {line_no}: {token!r} is not {what}") from None
            if not math.isfinite(value):
                raise ParseError(f"line {line_no}: non-finite value {token!r}")
            fields.append(value)
        yield kind, fields


def parse_attention_dump(text: str):
    """Returns (positions {step: {ped: (x, y)}}, entries list of tuples)."""
    positions: dict = {}
    entries = []
    for kind, fields in _rows(text, {"P": (4, 2), "A": (6, 5)}):
        if kind == "P":
            t, ped, x, y = fields
            positions.setdefault(t, {})[ped] = (x, y)
        else:
            entries.append(tuple(fields))
    return positions, entries


def format_trajectory_dump(window: SequenceWindow, pred_set: PredictionSet, t_obs: int) -> str:
    """Observed, ground-truth and every predicted sample's points to text."""
    lines = [
        "# trajectory dump",
        f"# window {window.scene_name}:{window.start_frame} peds {window.n_peds}",
        "# O ped step x y / G ped step x y / S sample ped step x y",
    ]
    for kind, first, stop in (("O", 0, t_obs), ("G", t_obs, window.t_total)):
        for i, t in np.ndindex(window.n_peds, stop - first):
            x, y = window.positions[i, first + t]
            lines.append(f"{kind}\t{i}\t{first + t}\t{float(x)!r}\t{float(y)!r}")
    for m, i, t in np.ndindex(pred_set.trajectories.shape[:3]):
        x, y = pred_set.trajectories[m, i, t]
        lines.append(f"S\t{m}\t{i}\t{t_obs + t}\t{float(x)!r}\t{float(y)!r}")
    return "\n".join(lines) + "\n"


def parse_trajectory_dump(text: str):
    """Returns (observed, ground_truth, samples) as nested dicts of points.
    A dump without S rows parses too, with ``samples`` empty.

    observed/ground_truth: {ped: [(step, x, y), ...]};
    samples: {sample: {ped: [(step, x, y), ...]}}.
    """
    observed: dict = {}
    gt: dict = {}
    samples: dict = {}
    for kind, fields in _rows(text, {"O": (4, 2), "G": (4, 2), "S": (5, 3)}):
        if kind == "S":
            m, ped, t, x, y = fields
            samples.setdefault(m, {}).setdefault(ped, []).append((t, x, y))
        else:
            ped, t, x, y = fields
            (observed if kind == "O" else gt).setdefault(ped, []).append((t, x, y))
    for per_ped in (observed, gt, *samples.values()):
        for pts in per_ped.values():
            pts.sort()
    return observed, gt, samples


def write_attention_dump(path, window: SequenceWindow, attn_record: list, t_obs: int):
    Path(path).write_text(format_attention_dump(window, attn_record, t_obs), encoding="utf-8")


def write_trajectory_dump(path, window: SequenceWindow, pred_set: PredictionSet, t_obs: int):
    Path(path).write_text(format_trajectory_dump(window, pred_set, t_obs), encoding="utf-8")
