"""Deterministic synthetic scenes for tests and the bundled data directory.

Coordinates are integer multiples of 1/1024 m serialized with 10 decimal
places, so every value survives the text round trip bit-exactly and
displacement sums telescope without rounding. Frame numbers advance by 10
(the raw-to-resampled stride used throughout).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GRID = 1024  # positions are k/GRID meters, k integer
FRAME_STEP = 10


def _u(meters: float) -> int:
    """Meters to grid units; the argument must sit on the grid."""
    units = meters * GRID
    rounded = round(units)
    if abs(units - rounded) > 1e-9:
        raise ValueError(f"{meters} is not on the 1/{GRID} grid")
    return int(rounded)


def _line(ped: int, start_frame_idx: int, n_frames: int, x0: int, y0: int,
          vx: int, vy: int) -> list:
    """Constant-velocity walk in grid units; one row per resampled frame."""
    rows = []
    for t in range(n_frames):
        rows.append((
            (start_frame_idx + t) * FRAME_STEP,
            ped,
            x0 + vx * t,
            y0 + vy * t,
        ))
    return rows


def _pacing_walk(rng, ped: int, n_frames: int, x0: int, y0: int, vx: int, vy: int,
                 x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list:
    """Bounded walk that reverses at the box edges, with mild grid jitter
    of up to two 16-unit (1/64 m) steps per axis and frame."""
    rows = [(0, ped, x0, y0)]
    x, y = x0, y0
    for t in range(1, n_frames):
        jx = int(rng.integers(-2, 3)) * 16
        jy = int(rng.integers(-2, 3)) * 16
        if not (x_lo <= x + vx + jx <= x_hi):
            vx = -vx
        if not (y_lo <= y + vy + jy <= y_hi):
            vy = -vy
        x += vx + jx
        y += vy + jy
        x = min(max(x, x_lo), x_hi)
        y = min(max(y, y_lo), y_hi)
        rows.append((t * FRAME_STEP, ped, x, y))
    return rows


def scene_linear() -> list:
    """Three constant-velocity pedestrians over exactly 20 frames.

    A shuffling-pace group (about 0.16 m/s) so the single window is easy
    to memorize within a short optimization budget.
    """
    rows = []
    rows += _line(1, 0, 20, _u(0.0), _u(0.0), _u(0.0625), _u(0.0))
    rows += _line(2, 0, 20, _u(10.0), _u(2.0), _u(-0.0625), _u(0.03125))
    rows += _line(3, 0, 20, _u(2.0), _u(8.0), _u(0.0625), _u(-0.0625))
    return rows


def scene_crossing() -> list:
    """Two pedestrians whose paths cross at different speeds.

    The geometry is deliberately not mirror-symmetric, so the two
    directed attention weights between them have no reason to agree.
    """
    rows = []
    rows += _line(1, 0, 20, _u(0.0), _u(2.5), _u(0.625), _u(0.0))
    rows += _line(2, 0, 20, _u(6.0), _u(7.25), _u(0.125), _u(-0.375))
    return rows


def scene_groupmerge() -> list:
    """Two pairs converging into one group; 26 frames, 7 windows."""
    rows = []
    rows += _line(1, 0, 26, _u(0.0), _u(0.0), _u(0.5), _u(0.125))
    rows += _line(2, 0, 26, _u(0.0), _u(1.0), _u(0.5), _u(0.09375))
    rows += _line(3, 0, 26, _u(12.0), _u(8.0), _u(-0.4375), _u(-0.1875))
    rows += _line(4, 0, 26, _u(12.5), _u(9.0), _u(-0.46875), _u(-0.21875))
    return rows


def scene_zara1_like(seed: int = 20260819) -> list:
    """Sidewalk-style crowd over 119 frames, pinning 100 stride-1 windows.

    Two pacing pedestrians span the whole timeline, which alone fixes the
    window count at 119 - 20 + 1 = 100; a dozen crossers enter and leave
    for realistic varying density.
    """
    rng = np.random.default_rng(seed)
    n_frames = 119
    rows = []
    rows += _pacing_walk(rng, 1, n_frames, _u(1.0), _u(3.0), _u(0.5), _u(0.03125),
                         _u(0.0), _u(14.0), _u(2.0), _u(5.0))
    rows += _pacing_walk(rng, 2, n_frames, _u(13.0), _u(6.0), _u(-0.46875), _u(-0.03125),
                         _u(0.0), _u(14.0), _u(4.0), _u(8.0))
    speeds = [_u(0.34375), _u(0.40625), _u(0.46875), _u(0.5)]
    ped = 3
    for k in range(12):
        start_idx = int(rng.integers(0, 90))
        span = int(rng.integers(22, 30)) if k < 10 else int(rng.integers(10, 15))
        span = min(span, n_frames - start_idx)
        eastbound = bool(rng.integers(0, 2))
        v = speeds[int(rng.integers(0, len(speeds)))]
        vx = v if eastbound else -v
        x0 = _u(0.5) if eastbound else _u(13.5)
        y0 = _u(2.0) + int(rng.integers(0, 24)) * 256  # lanes 0.25 m apart
        vy = int(rng.integers(-1, 2)) * 32
        rows += _line(ped, start_idx, span, x0, y0, vx, vy)
        ped += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def scene_bench8() -> list:
    """Eight pedestrians all present for exactly one 20-frame window."""
    rows = []
    specs = [
        (_u(0.0), _u(1.0), _u(0.5), _u(0.0625)),
        (_u(0.5), _u(2.0), _u(0.46875), _u(0.0)),
        (_u(12.0), _u(3.0), _u(-0.5), _u(0.03125)),
        (_u(11.5), _u(4.5), _u(-0.4375), _u(-0.0625)),
        (_u(1.0), _u(6.0), _u(0.40625), _u(0.09375)),
        (_u(6.0), _u(0.5), _u(0.0625), _u(0.46875)),
        (_u(7.0), _u(9.5), _u(-0.03125), _u(-0.4375)),
        (_u(3.0), _u(8.0), _u(0.34375), _u(-0.25)),
    ]
    for i, (x0, y0, vx, vy) in enumerate(specs, start=1):
        rows += _line(i, 0, 20, x0, y0, vx, vy)
    return rows


_BUILDERS = {
    "linear": scene_linear,
    "crossing": scene_crossing,
    "groupmerge": scene_groupmerge,
    "zara1_like": scene_zara1_like,
    "bench8": scene_bench8,
}


def _emit(path: Path, rows: list):
    lines = [f"{frame} {ped} {x / GRID:.10f} {y / GRID:.10f}" for frame, ped, x, y in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_synthetic_scenes(out_dir) -> dict:
    """Write every scene file; returns name -> path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, build in _BUILDERS.items():
        path = out / f"{name}.txt"
        _emit(path, build())
        paths[name] = path
    return paths
