"""Attention and trajectory dumps: one JSON object per window, on one line.

Both kinds of record hold ``kind`` ("attention" or "trajectories"),
``scene``, ``start_frame`` and ``t_obs``, then their arrays as nested lists:

    attention      positions [N, t_obs, 2]; attention, one
                   [heads, t_obs, N, N] array per layer
    trajectories   positions [N, T_total, 2], observed then ground truth;
                   samples [M, N, T_total - t_obs, 2]

The standard library's ``json`` writes and reads them. Floats are written
by repr, so they round-trip, and the scene name is escaped, so no name can
break the line. The parsers read the text with the shared
``errors.content_lines``, need exactly one record, refuse ``NaN`` and
``Infinity``, and check each array once for its shape and for holding only
finite floats. Every failure is a ``ParseError`` naming the line.
"""

from __future__ import annotations

import io
import json
from itertools import islice
from pathlib import Path

import numpy as np

from .data import SequenceWindow
from .errors import ContractError, ParseError, content_lines
from .metrics import PredictionSet


def _format(kind: str, window: SequenceWindow, t_obs: int, positions, **arrays) -> str:
    record = {"kind": kind, "scene": window.scene_name, "start_frame": window.start_frame,
              "t_obs": t_obs, "positions": positions.tolist(), **arrays}
    try:
        return json.dumps(record, allow_nan=False) + "\n"
    except ValueError as e:
        raise ContractError(f"cannot write the {kind} dump: {e}") from None


def format_attention_dump(window: SequenceWindow, attn_record: list, t_obs: int) -> str:
    """Attention record (list per layer of [heads, T, N, N]) to one JSON line."""
    return _format("attention", window, t_obs, window.positions[:, :t_obs],
                   attention=[np.asarray(layer).tolist() for layer in attn_record])


def format_trajectory_dump(window: SequenceWindow, pred_set: PredictionSet, t_obs: int) -> str:
    """Observed and ground-truth positions and every predicted sample to one JSON line."""
    return _format("trajectories", window, t_obs, window.positions,
                   samples=pred_set.trajectories.tolist())


def _refuse_constant(name):
    raise ValueError(f"non-finite value {name}")


def _record(text: str, kind: str, arrays: tuple):
    """The one record in ``text``, checked to be a ``kind`` record with
    the array keys ``arrays``, and the number of its line."""
    lines = list(islice(content_lines(text), 2))
    if not lines:
        end = len(io.StringIO(text, newline=None).readlines()) + 1
        raise ParseError(f"line {end}: no {kind} record before the end of the dump")
    line_no, line = lines[0]
    try:
        record = json.loads(line, parse_constant=_refuse_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {line_no}: not a JSON record: {e.msg} at column {e.colno}") from None
    except (ValueError, RecursionError) as e:
        raise ParseError(f"line {line_no}: {e}") from None
    if len(lines) > 1:
        raise ParseError(f"line {lines[1][0]}: a dump holds one record, on one line")
    keys = ["kind", "scene", "start_frame", "t_obs", "positions", *arrays]
    if not isinstance(record, dict) or record.get("kind") != kind:
        raise ParseError(f"line {line_no}: not a JSON object of kind {kind!r}")
    if sorted(record) != sorted(keys):
        raise ParseError(f"line {line_no}: {kind} record keys must be {keys}, got {list(record)}")
    t_obs = record["t_obs"]
    if not (isinstance(record["scene"], str) and type(record["start_frame"]) is int
            and type(t_obs) is int and t_obs >= 1):
        raise ParseError(f"line {line_no}: need a string scene, an integer start_frame "
                         "and an integer t_obs >= 1")
    return record, line_no


def _array(value, what: str, line_no: int, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``, where None is any extent.
    A nested list of another shape, or holding anything but finite floats,
    raises a ``ParseError``."""
    a = np.asarray(value, dtype=object)
    if (a.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, a.shape))
            or not all(type(v) is float for v in a.flat)):
        dims = ", ".join("*" if n is None else str(n) for n in shape)
        raise ParseError(f"line {line_no}: {what} must be a [{dims}] array of floats")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ParseError(f"line {line_no}: {what} holds a non-finite value")
    return a


def parse_attention_dump(text: str) -> dict:
    """The record, with ``positions`` [N, t_obs, 2] and ``attention`` (one
    [heads, t_obs, N, N] per layer) as float arrays."""
    record, line_no = _record(text, "attention", ("attention",))
    t_obs, layers = record["t_obs"], record["attention"]
    positions = record["positions"] = _array(record["positions"], "positions", line_no,
                                             (None, t_obs, 2))
    if not isinstance(layers, list) or not layers:
        raise ParseError(f"line {line_no}: attention must be a list of one array per layer")
    n = len(positions)
    record["attention"] = [_array(layer, f"attention layer {k}", line_no, (None, t_obs, n, n))
                           for k, layer in enumerate(layers)]
    return record


def parse_trajectory_dump(text: str) -> dict:
    """The record, with ``positions`` [N, T_total, 2] and ``samples``
    [M, N, T_total - t_obs, 2] as float arrays."""
    record, line_no = _record(text, "trajectories", ("samples",))
    t_obs = record["t_obs"]
    positions = record["positions"] = _array(record["positions"], "positions", line_no,
                                             (None, None, 2))
    n, t_total = positions.shape[:2]
    if t_total <= t_obs:
        raise ParseError(f"line {line_no}: positions must hold more than t_obs = {t_obs} "
                         f"steps, got {t_total}")
    record["samples"] = _array(record["samples"], "samples", line_no, (None, n, t_total - t_obs, 2))
    return record


def write_attention_dump(path, window: SequenceWindow, attn_record: list, t_obs: int):
    Path(path).write_text(format_attention_dump(window, attn_record, t_obs), encoding="utf-8")


def write_trajectory_dump(path, window: SequenceWindow, pred_set: PredictionSet, t_obs: int):
    Path(path).write_text(format_trajectory_dump(window, pred_set, t_obs), encoding="utf-8")
