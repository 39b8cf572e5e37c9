"""Static SVG rendering of planar configurations and partitions.

Output is a plain string built deterministically: same inputs, same
bytes.  Only dimension 2 is supported; callers with higher-dimensional
data should project or slice before plotting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, List, Optional, Sequence, Tuple

from .geometry import PointConfig
from .linalg import Vector
from .partition import Partition

# Okabe-Ito palette: colorblind-safe, cycles when parts exceed it.
_PALETTE = (
    "#0072B2",
    "#E69F00",
    "#009E73",
    "#CC79A7",
    "#56B4E9",
    "#D55E00",
    "#F0E442",
    "#999999",
)
_HIGHLIGHT = "#CC0000"
_SIZE = 640  # width and height of the square canvas
_MARGIN = 48


def _cross(o: Vector, a: Vector, b: Vector) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Sequence[Vector]) -> List[int]:
    """Indices of the convex hull vertices in counterclockwise order.

    Exact arithmetic; collinear boundary points are dropped.  One or two
    distinct points yield the obvious degenerate hull.
    """
    order = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1]))
    dedup: List[int] = []
    for i in order:
        if not dedup or points[i] != points[dedup[-1]]:
            dedup.append(i)
    if len(dedup) <= 2:
        return dedup

    def build(seq: Sequence[int]) -> List[int]:
        chain: List[int] = []
        for i in seq:
            while (
                len(chain) >= 2
                and _cross(points[chain[-2]], points[chain[-1]], points[i]) <= 0
            ):
                chain.pop()
            chain.append(i)
        return chain

    lower = build(dedup)
    upper = build(list(reversed(dedup)))
    return lower[:-1] + upper[:-1]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Projector:
    def __init__(self, points: Sequence[Vector]) -> None:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
        self._scale = (_SIZE - 2 * _MARGIN) / float(span)
        self._lo_x = float(lo_x)
        self._hi_y = float(hi_y)

    def __call__(self, p: Vector) -> Tuple[float, float]:
        # SVG y grows downward; flip so the plot reads like usual axes.
        x = _MARGIN + (float(p[0]) - self._lo_x) * self._scale
        y = _MARGIN + (self._hi_y - float(p[1])) * self._scale
        return x, y


def render_svg(
    cfg: PointConfig,
    partition: Optional[Partition] = None,
    removal: Optional[Collection[int]] = None,
) -> str:
    """SVG document: points colored by part, part hulls as translucent
    polygons, removal indices ringed in red."""
    if cfg.dim != 2:
        raise ValueError("plotting requires dimension 2")
    if partition is not None:
        partition.check(cfg)
    removed = set(removal or ())
    for i in removed:
        if not 0 <= i < len(cfg.points):
            raise ValueError(f"removal index {i} out of range")

    project = _Projector(cfg.points)
    parts: List[List[int]] = partition.parts() if partition is not None else []

    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    for part_pos, members in enumerate(parts):
        color = _PALETTE[part_pos % len(_PALETTE)]
        hull = convex_hull_2d([cfg.points[i] for i in members])
        if len(hull) >= 2:
            coords = " ".join(
                ",".join(map(_fmt, project(cfg.points[members[h]]))) for h in hull
            )
            lines.append(
                f'<polygon points="{coords}" fill="{color}" fill-opacity="0.15" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    for i, p in enumerate(cfg.points):
        x, y = project(p)
        if partition is not None:
            color = _PALETTE[(partition.labels[i] - 1) % len(_PALETTE)]
        else:
            color = "#444444"
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}"/>'
        )
        if i in removed:
            lines.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="8" fill="none" '
                f'stroke="{_HIGHLIGHT}" stroke-width="2"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
