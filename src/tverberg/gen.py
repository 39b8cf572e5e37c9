"""Synthetic point configurations for experiments and tests.

All coordinates are small integers (as exact rationals), so downstream
arithmetic stays fast; randomized kinds are deterministic in the seed.
Duplicate points may occur in random output and are legal everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .geometry import PointConfig
from .linalg import Vector
from .rng import SplitMix64

MAX_POINTS = 100_000  # every generator refuses more points before building any
# Ball points are drawn by rejection from the surrounding cube, which accepts
# at least ~0.016 of the draws up to dimension 8 and ~2e-14 in dimension 30.
MAX_BALL_DIM = 8


def _check_count(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one point")
    if n > MAX_POINTS:
        raise ValueError(f"{n} points exceed the cap of {MAX_POINTS}")


def line_points(n: int) -> PointConfig:
    """The integers 1..n on the real line."""
    _check_count(n)
    return PointConfig(dim=1, points=tuple((Fraction(i),) for i in range(1, n + 1)))


def grid_points(side: int, dim: int) -> PointConfig:
    """The integer lattice cube {0, ..., side-1}^dim."""
    if side < 1:
        raise ValueError("side must be positive")
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim > MAX_POINTS:  # a side of 1 is one point, but one of dim coordinates
        raise ValueError(f"grid dimension {dim} exceeds the cap of {MAX_POINTS}")
    # Any side >= 2 passes the cap by dimension 17 (2**17 > MAX_POINTS): stop there.
    if side ** min(dim, MAX_POINTS.bit_length()) > MAX_POINTS:
        raise ValueError(f"grid would have {side}^{dim} points, cap is {MAX_POINTS}")
    axis = [Fraction(v) for v in range(side)]
    return PointConfig(dim=dim, points=tuple(product(axis, repeat=dim)))


def _ball_point(rng: SplitMix64, dim: int, radius: int) -> Vector:
    r2 = radius * radius
    while True:
        coords = tuple(rng.next_below(2 * radius + 1) - radius for _ in range(dim))
        if sum(c * c for c in coords) <= r2:
            return tuple(Fraction(c) for c in coords)


def uniform_ball(n: int, dim: int, radius: int, seed: int) -> PointConfig:
    """n integer points drawn uniformly from the ball of the given radius."""
    _check_count(n)
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim > MAX_BALL_DIM:
        raise ValueError(f"ball dimension {dim} exceeds the cap of {MAX_BALL_DIM}")
    if radius < 1:
        raise ValueError("radius must be positive")
    rng = SplitMix64(seed)
    return PointConfig(
        dim=dim, points=tuple(_ball_point(rng, dim, radius) for _ in range(n))
    )


def colored_classes(classes: int, r: int, dim: int, radius: int, seed: int) -> PointConfig:
    """classes color classes of r random ball points each; class ids are 1-based
    and appear as r consecutive points per class."""
    if classes < 1:
        raise ValueError("need at least one class")
    if r < 1:
        raise ValueError("need at least one point per class")
    base = uniform_ball(classes * r, dim, radius, seed)
    colors = tuple(c for c in range(1, classes + 1) for _ in range(r))
    return PointConfig(dim=dim, points=base.points, colors=colors)
