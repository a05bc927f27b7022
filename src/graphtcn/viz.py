"""Deterministic SVG rendering of trajectory and attention dumps.

Styling convention: observed polylines solid red, ground-truth future
solid blue, predicted samples dashed yellow-orange. Attention plots mark
pedestrians at the last step with circles whose radius scales with the
attention weight pedestrian 0 assigns them in head 0 of the last layer.

The emitter is plain string assembly with fixed-precision coordinates,
so identical inputs give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from .dumps import parse_attention_dump, parse_trajectory_dump
from .errors import ContractError, ParseError, read_utf8

WIDTH, HEIGHT, MARGIN = 800.0, 600.0, 40.0

OBSERVED_STYLE = 'stroke="#d62728" fill="none" stroke-width="2"'
GT_STYLE = 'stroke="#1f77b4" fill="none" stroke-width="2"'
PRED_STYLE = 'stroke="#e6b417" fill="none" stroke-width="1.5" stroke-dasharray="6,4"'


class _Canvas:
    """World-to-viewport scaling plus element collection."""

    def __init__(self, xs, ys):
        if not xs:
            raise ContractError("nothing to plot")
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
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
        if len(points) < 2:
            return
        coords = " ".join(self.pt(x, y) for x, y in points)
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


def _collect_xy(*point_lists):
    xs, ys = [], []
    for pts in point_lists:
        for _, x, y in pts:
            xs.append(x)
            ys.append(y)
    return xs, ys


def render_trajectories(text: str, include_samples: bool) -> str:
    observed, gt, samples = parse_trajectory_dump(text)
    if not observed:
        raise ParseError("trajectory dump has no observed points")
    all_pts = list(observed.values()) + list(gt.values())
    if include_samples:
        for per_ped in samples.values():
            all_pts.extend(per_ped.values())
    xs, ys = _collect_xy(*all_pts)
    canvas = _Canvas(xs, ys)
    for ped in sorted(observed):
        canvas.polyline([(x, y) for _, x, y in observed[ped]], OBSERVED_STYLE)
    for ped in sorted(gt):
        pts = gt[ped]
        # Join the future to the last observed point for a continuous path.
        if ped in observed and observed[ped]:
            last = observed[ped][-1]
            pts = [last] + pts
        canvas.polyline([(x, y) for _, x, y in pts], GT_STYLE)
    if include_samples:
        for m in sorted(samples):
            for ped in sorted(samples[m]):
                canvas.polyline([(x, y) for _, x, y in samples[m][ped]], PRED_STYLE)
    return canvas.render()


def render_attention(text: str) -> str:
    """Circles sized by pedestrian 0's attention row in head 0 of the
    last layer, at the last step."""
    positions, entries = parse_attention_dump(text)
    if not entries:
        raise ParseError("attention dump has no attention rows")
    layer = max(e[0] for e in entries)
    step = max(e[2] for e in entries)
    weights = {j: w for (l, k, t, i, j, w) in entries if (l, k, t, i) == (layer, 0, step, 0)}
    if not weights:
        raise ContractError(f"no attention entries for layer {layer}, head 0, step {step}, target 0")
    pos_t = positions.get(step, {})
    xs = [p[0] for p in pos_t.values()]
    ys = [p[1] for p in pos_t.values()]
    canvas = _Canvas(xs, ys)
    max_r = 24.0
    for j in sorted(pos_t):
        x, y = pos_t[j]
        r = 3.0 + max_r * weights.get(j, 0.0)
        fill = "#d62728" if j == 0 else "#1f77b4"
        canvas.circle(x, y, r, f'fill="{fill}" fill-opacity="0.45" stroke="{fill}"')
        canvas.text(x, y, f"{j}:{weights.get(j, 0.0):.3f}")
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
