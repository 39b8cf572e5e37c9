"""Shared helpers: independent brute-force oracles and instance generators.

The oracles here deliberately avoid the package's simplex and
candidate-direction machinery so that agreement is meaningful:
hull membership goes through Caratheodory subsets and Cramer's rule over
integer determinants, one-dimensional depth through direct counting.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from hypothesis import settings

from tverberg.geometry import PointConfig
from tverberg.linalg import clear_denominators, int_det
from tverberg.rng import SplitMix64

Vec = Tuple[Fraction, ...]

# CI keeps no example database between runs, so it draws examples
# deterministically and prints the blob that reproduces a failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def solve_by_cramer(
    mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[Vec]:
    """The x with mat @ x == rhs for a square rational system, by Cramer's
    rule over int_det; None when the matrix is singular.  Each row is
    cleared of denominators, with its right-hand side, first."""
    rows = [clear_denominators([*row, b]) for row, b in zip(mat, rhs)]
    det = int_det([row[:-1] for row in rows])
    if det == 0:
        return None
    return tuple(
        Fraction(int_det([row[:j] + row[-1:] + row[j + 1 : -1] for row in rows]), det)
        for j in range(len(rows))
    )


def brute_origin_in_hull(points: Sequence[Vec]) -> bool:
    """0 in conv(points), via Caratheodory subsets of size <= d+1.

    For each subset, barycentric coordinates are found from the normal
    equations of the (d+1) x k homogeneous system and re-verified
    exactly, so no feasible subset is ever missed on rank grounds.
    """
    if not points:
        return False
    d = len(points[0])
    target = tuple([Fraction(0)] * d + [Fraction(1)])
    for k in range(1, d + 2):
        for subset in combinations(points, k):
            cols = [tuple(p) + (Fraction(1),) for p in subset]
            gram = [
                [sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(k)]
                for i in range(k)
            ]
            rhs = [sum(a * b for a, b in zip(cols[i], target)) for i in range(k)]
            lam = solve_by_cramer(gram, rhs)
            if lam is None:
                continue
            if any(l < 0 for l in lam):
                continue
            recon = [
                sum(lam[i] * cols[i][t] for i in range(k)) for t in range(d + 1)
            ]
            if tuple(recon) == target:
                return True
    return False


def depth_1d(xs: Sequence[Fraction], c: Fraction) -> int:
    """Half-space depth on the line: the lighter side, ties included."""
    lo = sum(1 for x in xs if x <= c)
    hi = sum(1 for x in xs if x >= c)
    return min(lo, hi)


def random_int_config(
    n: int, dim: int, seed: int, spread: int = 9, colors_every: Optional[int] = None
) -> PointConfig:
    """Small integer points in [-spread, spread]^dim; duplicates allowed."""
    rng = SplitMix64(seed)
    pts = tuple(
        tuple(Fraction(rng.next_below(2 * spread + 1) - spread) for _ in range(dim))
        for _ in range(n)
    )
    colors = None
    if colors_every is not None:
        colors = tuple(i // colors_every + 1 for i in range(n))
    return PointConfig(dim=dim, points=pts, colors=colors)


def all_labelings(n: int, r: int):
    """Every assignment of n points to parts 1..r."""
    from itertools import product

    return product(range(1, r + 1), repeat=n)


def labelings_up_to_relabelling(n: int, r: int):
    """One labeling per split of n points into r nonempty parts: the one
    whose labels first appear in the order 1..r."""
    for labels in all_labelings(n, r):
        if list(dict.fromkeys(labels)) == list(range(1, r + 1)):
            yield labels


def point_in_hull(point: Vec, points: Sequence[Vec]) -> bool:
    """point in conv(points), by translating to the origin."""
    shifted = [tuple(x - y for x, y in zip(p, point)) for p in points]
    return brute_origin_in_hull(shifted)
