"""Exact LP feasibility for convex hull intersection and hull membership.

There is one system: do the convex hulls of some disjoint parts share a
point?  Membership of the origin is the case where one part is the single
point 0, so ``origin_in_hull`` is ``hulls_intersect`` with the origin
appended.  The question is whether  A x = b,  x >= 0  admits a solution,
decided by a textbook phase-one simplex: only real columns enter, so
every pivot lowers or holds the artificials' sum, and by Bland's theorem
(1977) the lowest-index rule then terminates.  The tableau holds integer
rows over one common denominator, each kept up to a positive scale and
reduced by its gcd after every fraction-free pivot (Edmonds 1967, Bareiss
1968), so its pivots are exactly those of the same simplex over Fractions.
One exact check re-substitutes every witness into its defining constraints
before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .geometry import PointConfig
from .linalg import Vector, eliminate

_ZERO = Fraction(0)

# Convex coefficients: (point index, weight) for every point of a part, in
# index order; the weights are nonnegative and each part's sum to one.
ConvexWitness = tuple[tuple[int, Fraction], ...]


def _solve_feasibility(rows: Sequence[Sequence[int]]) -> list[Fraction] | None:
    """Find x >= 0 with  sum_j x_j * row[1 + j] = row[0]  for every row, or None.

    Rows are integer rows [RHS | real columns] over one common denominator,
    one positive multiple of the Fraction system, so the objective row is a
    multiple of the Fraction tableau's and every sign test, ratio and pivot
    is that tableau's; scaling each row apart would change the pivots.

    Textbook phase one: row i's artificial variable starts basic as index
    n + i and is never a tableau column, so only real columns enter and an
    artificial that leaves never returns.  Every pivot then lowers or holds
    the artificials' sum, and Bland's rule (lowest index enters, lowest
    basic index leaves on ties) cannot cycle.
    """
    m = len(rows)
    n = len(rows[0]) - 1
    # Rows flipped so every RHS entry is nonnegative.
    rows = [[-v for v in row] if row[0] < 0 else row for row in rows]
    basis = [n + i for i in range(m)]  # row i's artificial variable

    # Objective row for minimizing the artificial sum, in reduced costs: the
    # plain sum of the rows.  A basic column's entry is zero, so it never enters.
    z = [sum(col) for col in zip(*rows)]

    while (enter := next((j for j in range(n) if z[1 + j] > 0), None)) is not None:
        col = 1 + enter
        # Ratio test on row[0] / row[col], compared by cross-multiplication.
        leave_row = -1
        for i, row in enumerate(rows):
            if row[col] > 0 and (
                leave_row < 0
                or (diff := row[0] * best[col] - best[0] * row[col]) < 0
                or (diff == 0 and basis[i] < basis[leave_row])
            ):
                leave_row, best = i, row
        if leave_row < 0:
            raise AssertionError("phase-one objective is bounded by zero")
        rows = [row if row is best else eliminate(row, best, col) for row in rows]
        z = eliminate(z, best, col)
        basis[leave_row] = enter

    if any(row[0] for row, b in zip(rows, basis) if b >= n):
        return None
    x = [_ZERO] * n
    for row, b in zip(rows, basis):
        if b < n:
            x[b] = Fraction(row[0], row[1 + b])
    return x


def origin_in_hull(cfg: PointConfig) -> ConvexWitness | None:
    """Convex coefficients writing the origin over the points, or None.

    This is hull intersection with a one-point part: the origin is appended
    as point n, and the hulls of the points and of {n} meet exactly when
    the points' hull holds the origin.  The witness is that of
    ``hulls_intersect`` cut to the first n points.
    """
    n = len(cfg.points)
    extended = PointConfig(dim=cfg.dim, points=(*cfg.points, (_ZERO,) * cfg.dim))
    found = hulls_intersect(extended, [range(n), [n]])
    if found is None:
        return None
    return found[1][:n]


def hulls_intersect(
    cfg: PointConfig, parts: Sequence[Iterable[int]]
) -> tuple[Vector, ConvexWitness] | None:
    """A common point of the parts' convex hulls with its witness, or None.

    Parts must be pairwise disjoint index sets.  Any empty part makes the
    intersection empty by convention, so the result is None without solving.
    """
    groups = [sorted(set(p)) for p in parts]
    if len(groups) < 1:
        raise ValueError("need at least one part")
    seen: set[int] = set()
    for g in groups:
        for i in g:
            if not 0 <= i < len(cfg.points):
                raise ValueError(f"point index {i} out of range")
            if i in seen:
                raise ValueError(f"point index {i} appears in two parts")
            seen.add(i)
    if any(not g for g in groups):
        return None

    d = cfg.dim
    r = len(groups)
    # Variables: convex weights per part, in group order.  Constraints, as
    # rows [RHS | variables] times the lcm L of the coordinates' denominators:
    # each part's weights sum to one (L, then L on the part), and for every
    # part j >= 2 the weighted part sum matches part 1's coordinatewise
    # (0, then L p_k on part 1 and -L p_k on part j).
    var_index = [(gpos, i) for gpos, g in enumerate(groups) for i in g]
    scale = lcm(*[c.denominator for _, i in var_index for c in cfg.points[i]])
    scaled = [  # (part position, point times L) per variable
        (gpos, [c.numerator * (scale // c.denominator) for c in cfg.points[i]])
        for gpos, i in var_index
    ]
    rows = [[scale] + [scale if g == j else 0 for g, _ in scaled] for j in range(r)]
    rows += [
        [0] + [p[k] if g == 0 else -p[k] if g == j else 0 for g, p in scaled]
        for j in range(1, r)
        for k in range(d)
    ]
    x = _solve_feasibility(rows)
    if x is None:
        return None

    weights = {i: w for (gpos, i), w in zip(var_index, x)}
    witness = tuple(sorted(weights.items()))
    point = tuple(
        sum((weights[i] * cfg.points[i][k] for i in groups[0] if weights[i]), _ZERO)
        for k in range(d)
    )
    _check_hulls_witness(cfg, groups, witness, point)
    return point, witness


def _check_hulls_witness(
    cfg: PointConfig,
    groups: Sequence[Sequence[int]],
    witness: ConvexWitness,
    point: Vector,
) -> None:
    weights = dict(witness)
    for g in groups:
        total = _ZERO
        acc = [_ZERO] * cfg.dim
        for i in g:
            w = weights[i]
            if w < 0:
                raise AssertionError("negative convex coefficient")
            if w:  # a zero weight adds exactly nothing
                total += w
                for k in range(cfg.dim):
                    acc[k] += w * cfg.points[i][k]
        if total != 1 or tuple(acc) != tuple(point):
            raise AssertionError("witness fails exact re-substitution")
