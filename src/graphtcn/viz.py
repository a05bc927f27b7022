"""Deterministic SVG rendering of trajectory and attention dumps, drawn
from the arrays of the dump's one record (``dumps.parse_*``).

Styling convention: observed polylines solid red, ground-truth future
solid blue, predicted samples dashed yellow-orange. Attention plots mark
pedestrians at the last step with circles whose radius scales with the
attention weight pedestrian 0 assigns them in head 0 of the last layer.

The emitter is plain string assembly with fixed-precision coordinates,
so identical inputs give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dumps import parse_attention_dump, parse_trajectory_dump
from .errors import ContractError, ParseError, read_utf8

WIDTH, HEIGHT, MARGIN = 800.0, 600.0, 40.0

OBSERVED_STYLE = 'stroke="#d62728" fill="none" stroke-width="2"'
GT_STYLE = 'stroke="#1f77b4" fill="none" stroke-width="2"'
PRED_STYLE = 'stroke="#e6b417" fill="none" stroke-width="1.5" stroke-dasharray="6,4"'


class _Canvas:
    """World-to-viewport scaling plus element collection."""

    def __init__(self, points):
        xy = np.reshape(points, (-1, 2))
        (x_lo, y_lo), (x_hi, y_hi) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
        span_x = max(x_hi - x_lo, 1e-9)
        span_y = max(y_hi - y_lo, 1e-9)
        scale = min((WIDTH - 2 * MARGIN) / span_x, (HEIGHT - 2 * MARGIN) / span_y)
        self.scale = scale
        self.x_lo, self.y_hi = x_lo, y_hi
        self.elements = []

    def pt(self, x, y):
        # Flip y so north in world coordinates is up on screen.
        px = MARGIN + (x - self.x_lo) * self.scale
        py = MARGIN + (self.y_hi - y) * self.scale
        return f"{px:.4f},{py:.4f}"

    def polyline(self, points, style):
        """``points`` is a [K, 2] array; fewer than two points draw nothing."""
        if len(points) < 2:
            return
        coords = " ".join(self.pt(x, y) for x, y in points.tolist())
        self.elements.append(f'<polyline points="{coords}" {style}/>')

    def circle(self, x, y, r, style):
        px, py = self.pt(x, y).split(",")
        self.elements.append(f'<circle cx="{px}" cy="{py}" r="{r:.4f}" {style}/>')

    def text(self, x, y, label):
        px, py = self.pt(x, y).split(",")
        self.elements.append(
            f'<text x="{px}" y="{py}" font-size="11" fill="#333">{label}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
            f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def render_trajectories(text: str, include_samples: bool) -> str:
    record = parse_trajectory_dump(text)
    positions, samples, t_obs = record["positions"], record["samples"], record["t_obs"]
    drawn = [positions.reshape(-1, 2)] + ([samples.reshape(-1, 2)] if include_samples else [])
    canvas = _Canvas(np.concatenate(drawn))
    for track in positions:
        canvas.polyline(track[:t_obs], OBSERVED_STYLE)
    for track in positions:
        # Join the future to the last observed point for a continuous path.
        canvas.polyline(track[t_obs - 1:], GT_STYLE)
    if include_samples:
        for track in samples.reshape(-1, *samples.shape[2:]):
            canvas.polyline(track, PRED_STYLE)
    return canvas.render()


def render_attention(text: str) -> str:
    """Circles sized by pedestrian 0's attention row in head 0 of the
    last layer, at the last step."""
    record = parse_attention_dump(text)
    last = record["positions"][:, -1]
    canvas = _Canvas(last)
    max_r = 24.0
    for j, ((x, y), w) in enumerate(zip(last.tolist(), record["attention"][-1][0, -1, 0].tolist())):
        r = 3.0 + max_r * w
        fill = "#d62728" if j == 0 else "#1f77b4"
        canvas.circle(x, y, r, f'fill="{fill}" fill-opacity="0.45" stroke="{fill}"')
        canvas.text(x, y, f"{j}:{w:.3f}")
    return canvas.render()


def emit_plot(kind: str, in_path, out_path) -> Path:
    """Render a dump file to SVG. kind: trajectories, samples, attention."""
    text = read_utf8(in_path, ParseError)
    if kind == "trajectories":
        svg = render_trajectories(text, include_samples=False)
    elif kind == "samples":
        svg = render_trajectories(text, include_samples=True)
    elif kind == "attention":
        svg = render_attention(text)
    else:
        raise ContractError(f"unknown plot kind {kind!r}")
    out = Path(out_path)
    out.write_text(svg, encoding="utf-8")
    return out
