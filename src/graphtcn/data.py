"""Trajectory file parsing, windowing, buckets, splits, and features.

Input files are whitespace-separated ``frame ped_id x y`` rows in world
meters, one file per scene, read by the shared ``errors.content_lines``.
A scene is parsed straight into the map windowing reads, ``{frame:
{ped_id: (x, y)}}``. ``extract_windows`` cuts it into windows, the first
at the first recorded frame that yields one, whose rows stand exactly
``frame_step`` frames apart and whose pedestrians are those recorded at
every row. ``bucket_windows`` stacks the windows of equal size, which the
model then runs as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal
from itertools import chain
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DuplicateRecordError,
    ParseError,
    content_lines,
    read_utf8,
)
from .tensor import Tensor


@dataclass
class SequenceWindow:
    """One scene slice: N pedestrians over T_obs+T_pred resampled steps."""

    scene_name: str
    start_frame: int
    positions: np.ndarray  # [N, T_total, 2] float64, world meters
    ped_ids: list

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 3 or self.positions.shape[2] != 2:
            raise ContractError(f"window positions must be [N, T, 2], got {self.positions.shape}")
        if self.positions.shape[0] != len(self.ped_ids) or self.positions.shape[0] < 1:
            raise ContractError(
                f"{self.positions.shape[0]} position rows for {len(self.ped_ids)} pedestrians"
            )

    @property
    def n_peds(self) -> int:
        return self.positions.shape[0]

    @property
    def window_id(self) -> str:
        """``SCENE:START_FRAME``, as errors name a window and ``dump-attn``
        selects one."""
        return f"{self.scene_name}:{self.start_frame}"


@dataclass
class WindowBucket:
    """Windows of one size stacked on a leading axis: ``positions`` [B, N,
    T_total, 2]. ``index`` holds each one's place in the list it came from,
    ascending. The model reads only the positions, of a bucket as of a window."""

    index: list
    positions: np.ndarray


def bucket_windows(windows) -> list:
    """The windows grouped by size into buckets, in the order of each
    bucket's first window."""
    groups: dict = {}
    for i, w in enumerate(windows):
        groups.setdefault(w.positions.shape, []).append(i)
    return [WindowBucket(index, np.stack([windows[i].positions for i in index]))
            for index in groups.values()]


@dataclass(frozen=True)
class Split:
    train_scenes: tuple
    test_scene: str


def _parse_int_field(token: str, what: str, line_no: int):
    # An id is the integer its text denotes. Public ETH/UCY dumps write ids
    # as floats ("840.0"): Decimal reads those without rounding, and only
    # float's range is accepted, so no text builds a huge integer.
    try:
        value = int(token)
    except ValueError:
        try:
            finite = math.isfinite(float(token))
        except ValueError:
            raise ParseError(f"line {line_no}: {what} {token!r} is not numeric") from None
        exact = Decimal(token, Context(traps=[]))   # NaN past Decimal's exponent range
        if not (finite and exact == exact.to_integral_value()):
            raise ParseError(f"line {line_no}: {what} {token!r} is not an integer")
        value = int(exact)
    if value < 0:
        raise ParseError(f"line {line_no}: {what} must be non-negative, got {token}")
    return value


def parse_trajectory_file(path) -> dict:
    """Read one scene file of ``frame ped_id x y`` rows, exactly four
    fields each, into ``{frame: {ped_id: (x, y)}}``. Frames keep the order
    of their first row, and each frame's pedestrians the order of their
    rows. A second row for a frame and pedestrian raises
    ``DuplicateRecordError`` naming its line."""
    scene: dict = {}
    for line_no, line in content_lines(read_utf8(path, ParseError)):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"line {line_no}: expected 4 fields, got {len(parts)}")
        frame = _parse_int_field(parts[0], "frame", line_no)
        ped_id = _parse_int_field(parts[1], "ped_id", line_no)
        try:
            x, y = float(parts[2]), float(parts[3])
        except ValueError:
            raise ParseError(f"line {line_no}: bad coordinate in {parts[2:4]!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"line {line_no}: non-finite coordinate")
        peds = scene.setdefault(frame, {})
        if ped_id in peds:
            raise DuplicateRecordError(
                f"line {line_no}: duplicate record for frame {frame}, pedestrian {ped_id}"
            )
        peds[ped_id] = (x, y)
    return scene


def extract_windows(
    scene: dict,
    t_obs: int,
    t_pred: int,
    stride: int = ModelConfig.stride,
    scene_name: str = "",
    frame_step: int = ModelConfig.frame_step,
) -> list:
    """Slide a T_obs+T_pred window, its rows exactly ``frame_step`` frames
    apart, over ``scene``, a ``{frame: {ped_id: (x, y)}}`` map whose every
    frame holds a pedestrian, as ``parse_trajectory_file`` builds it.

    Each recorded frame, in ascending order, may start a window reading
    ``first, first + frame_step, ...``; the first window's frame anchors the
    ``frame_step * stride`` lattice that later windows start on. A
    pedestrian joins a window only if recorded at each of its frames, and
    ids are sorted; a frame where nobody qualifies starts no window, so no
    window bridges an empty gap. Time and memory stay linear in the rows,
    not the frame span, and neither the order of the frames nor that of
    their pedestrians changes the windows. Two or more frames, none with a
    recorded frame ``frame_step`` later, raise ``DataError``.
    """
    if t_obs < 1 or t_pred < 1 or stride < 1:
        raise ContractError(f"t_obs={t_obs}, t_pred={t_pred}, stride={stride} must all be >= 1")
    if frame_step < 1:
        raise ContractError(f"frame_step must be >= 1, got {frame_step}")
    recorded = sorted(scene)
    if len(recorded) > 1 and not any(f + frame_step in scene for f in recorded):
        gap = min(b - a for a, b in zip(recorded, recorded[1:]))
        raise DataError(f"scene {scene_name!r}: no two frames stand frame_step = {frame_step} "
                        f"apart; the smallest gap between its frames is {gap}")
    t_total = t_obs + t_pred

    windows = []
    for first in recorded:
        if windows and (first - windows[0].start_frame) % (frame_step * stride):
            continue
        win_frames = range(first, first + t_total * frame_step, frame_step)
        rows = (scene.get(f, ()) for f in win_frames[1:])
        ped_ids = sorted(set(scene[first]).intersection(*rows))
        if not ped_ids:
            continue
        values = chain.from_iterable(scene[f][pid] for pid in ped_ids for f in win_frames)
        positions = np.fromiter(values, np.float64, 2 * t_total * len(ped_ids))
        positions = positions.reshape(len(ped_ids), t_total, 2)
        windows.append(SequenceWindow(scene_name, first, positions, ped_ids))
    return windows


def make_splits(scene_names: list) -> list:
    """Leave-one-out: one split per scene, that scene held out for test."""
    names = list(scene_names)
    if len(names) < 2:
        raise ConfigError(f"leave-one-out needs at least 2 scenes, got {len(names)}")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate scene names in {names}")
    return [hold_out(names, test) for test in names]


def hold_out(scene_names, scene: str) -> Split:
    """The split that tests on ``scene`` and trains on every other scene."""
    names = list(scene_names)
    if scene not in names:
        raise DataError(f"scene {scene!r} not in {names}")
    return Split(train_scenes=tuple(n for n in names if n != scene), test_scene=scene)


def build_features(window, t_obs: int) -> Tensor:
    """Per-pedestrian observed features: (x, y, dx, dy) per step, [..., N,
    t_obs, 4] for the positions [..., N, T, 2] of a window or a bucket.

    The displacement columns hold the step-over-step difference, zero at
    the first step.
    """
    positions = window.positions
    if t_obs < 1 or t_obs > positions.shape[-2]:
        raise ContractError(f"t_obs={t_obs} outside window of {positions.shape[-2]} steps")
    obs = positions[..., :t_obs, :]
    feats = np.zeros(obs.shape[:-1] + (4,), dtype=np.float64)
    feats[..., :2] = obs
    feats[..., 1:, 2:] = obs[..., 1:, :] - obs[..., :-1, :]
    return Tensor(feats)


def discover_scenes(data_dir) -> list:
    """Scene names are the sorted stems of the regular *.txt files in the directory."""
    root = Path(data_dir)
    if not root.is_dir():
        raise DataError(f"data directory not found: {root}")
    names = sorted(p.stem for p in root.glob("*.txt") if p.is_file())
    if not names:
        raise DataError(f"no *.txt scene files in {root}")
    return names


def load_scene_windows(data_dir, scene: str, t_obs: int, t_pred: int,
                       stride: int = ModelConfig.stride,
                       frame_step: int = ModelConfig.frame_step) -> list:
    """Parse and window a single scene file."""
    path = Path(data_dir) / f"{scene}.txt"
    if not path.is_file():
        raise DataError(f"scene file not found: {path}")
    return extract_windows(parse_trajectory_file(path), t_obs, t_pred, stride=stride,
                           scene_name=scene, frame_step=frame_step)


def load_windows(data_dir, scenes, t_obs: int, t_pred: int,
                 stride: int = ModelConfig.stride,
                 frame_step: int = ModelConfig.frame_step) -> list:
    """Windows for several scenes, concatenated in scene order."""
    return [w for scene in scenes
            for w in load_scene_windows(data_dir, scene, t_obs, t_pred, stride=stride,
                                        frame_step=frame_step)]
