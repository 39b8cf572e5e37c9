"""Exact LP feasibility for convex hull membership and hull intersection.

Both queries reduce to: does a system  A x = b,  x >= 0  admit a solution?
They are decided by a phase-one simplex over Fractions with Bland's pivoting
rule, which cannot cycle, so termination is unconditional.  Every witness is
re-substituted into its defining constraints before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import PointConfig
from .linalg import Vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ConvexWitness:
    """Convex coefficients indexed by point, grouped by key.

    ``coefficients`` lists (point index, weight) for every participating
    point; weights are nonnegative and each group's weights sum to one.
    ``groups`` maps a group key to the indices it contains.
    """

    coefficients: tuple[tuple[int, Fraction], ...]
    groups: tuple[tuple[int, tuple[int, ...]], ...]


def _solve_feasibility(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with  sum_j x_j * columns[j] = rhs, or None.

    Phase-one simplex: artificial variables start basic, the objective is
    their sum, and Bland's rule (lowest eligible index enters, lowest-index
    basic variable leaves on ties) guarantees finite termination.
    """
    m = len(rhs)
    n = len(columns)
    # Tableau rows: [RHS | real columns | artificial columns], one per
    # constraint, with rows flipped so every RHS entry is nonnegative.
    rows: list[list[Fraction]] = []
    for i in range(m):
        flip = rhs[i] < 0
        row = [-rhs[i] if flip else rhs[i]]
        for j in range(n):
            v = columns[j][i]
            row.append(-v if flip else v)
        for a in range(m):
            row.append(_ONE if a == i else _ZERO)
        rows.append(row)
    basis = [n + i for i in range(m)]  # artificial j has tableau column 1+n+j

    # Objective row for minimizing the artificial sum, expressed in reduced
    # costs: z_row[j] = sum of artificial rows' column j (to be driven to 0).
    width = 1 + n + m
    z = [_ZERO] * width
    for row in rows:
        for j in range(width):
            z[j] += row[j]

    while True:
        enter = next(
            (j for j in range(n + m) if z[1 + j] > 0 and j not in basis),
            None,
        )
        if enter is None:
            break
        col = 1 + enter
        ratio_best: Fraction | None = None
        leave_row = -1
        for i, row in enumerate(rows):
            a = row[col]
            if a > 0:
                ratio = row[0] / a
                if (
                    ratio_best is None
                    or ratio < ratio_best
                    or (ratio == ratio_best and basis[i] < basis[leave_row])
                ):
                    ratio_best = ratio
                    leave_row = i
        if leave_row < 0:
            raise AssertionError("phase-one objective is bounded by zero")
        _pivot(rows, z, leave_row, col)
        basis[leave_row] = enter

    objective = sum((rows[i][0] for i in range(m) if basis[i] >= n), _ZERO)
    if objective != 0:
        return None
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i][0]
    return x


def _pivot(rows: list[list[Fraction]], z: list[Fraction], pr: int, pc: int) -> None:
    prow = rows[pr]
    pivot = prow[pc]
    if pivot != 1:
        inv = _ONE / pivot
        rows[pr] = prow = [v * inv for v in prow]
    for target in rows:
        if target is prow:
            continue
        factor = target[pc]
        if factor != 0:
            for j, pv in enumerate(prow):
                if pv != 0:
                    target[j] -= factor * pv
    factor = z[pc]
    if factor != 0:
        for j, pv in enumerate(prow):
            if pv != 0:
                z[j] -= factor * pv


def origin_in_hull(
    cfg: PointConfig, subset: Iterable[int] | None = None
) -> ConvexWitness | None:
    """Convex coefficients writing the origin over the subset, or None.

    An empty subset has an empty hull, so the answer is None.
    """
    indices = sorted(range(len(cfg.points)) if subset is None else set(subset))
    for i in indices:
        if not 0 <= i < len(cfg.points):
            raise IndexError(f"point index {i} out of range")
    if not indices:
        return None
    d = cfg.dim
    columns = [
        [cfg.points[i][k] for k in range(d)] + [_ONE] for i in indices
    ]
    rhs = [_ZERO] * d + [_ONE]
    x = _solve_feasibility(columns, rhs)
    if x is None:
        return None
    witness = ConvexWitness(
        coefficients=tuple((i, w) for i, w in zip(indices, x)),
        groups=((0, tuple(indices)),),
    )
    _check_origin_witness(cfg, witness)
    return witness


def _check_origin_witness(cfg: PointConfig, witness: ConvexWitness) -> None:
    total = _ZERO
    acc = [_ZERO] * cfg.dim
    for i, w in witness.coefficients:
        if w < 0:
            raise AssertionError("negative convex coefficient")
        total += w
        for k in range(cfg.dim):
            acc[k] += w * cfg.points[i][k]
    if total != 1 or any(v != 0 for v in acc):
        raise AssertionError("witness fails exact re-substitution")


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
                raise IndexError(f"point index {i} out of range")
            if i in seen:
                raise ValueError(f"point index {i} appears in two parts")
            seen.add(i)
    if any(not g for g in groups):
        return None

    d = cfg.dim
    r = len(groups)
    # Variables: convex weights per part, in group order.  Constraints:
    # each part's weights sum to one, and for every part j >= 2 the weighted
    # part sum matches part 1's coordinatewise.
    var_index: list[tuple[int, int]] = []  # (group position, point index)
    for gpos, g in enumerate(groups):
        for i in g:
            var_index.append((gpos, i))
    m = r + d * (r - 1)
    columns: list[list[Fraction]] = []
    for gpos, i in var_index:
        col = [_ZERO] * m
        col[gpos] = _ONE
        p = cfg.points[i]
        if gpos == 0:
            for j in range(1, r):
                base = r + d * (j - 1)
                for k in range(d):
                    col[base + k] = p[k]
        else:
            base = r + d * (gpos - 1)
            for k in range(d):
                col[base + k] = -p[k]
        columns.append(col)
    rhs = [_ONE] * r + [_ZERO] * (d * (r - 1))
    x = _solve_feasibility(columns, rhs)
    if x is None:
        return None

    weights = {i: w for (gpos, i), w in zip(var_index, x)}
    witness = ConvexWitness(
        coefficients=tuple(sorted(weights.items())),
        groups=tuple((gpos + 1, tuple(g)) for gpos, g in enumerate(groups)),
    )
    point = tuple(
        sum((weights[i] * cfg.points[i][k] for i in groups[0]), _ZERO)
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
    weights = dict(witness.coefficients)
    for g in groups:
        total = _ZERO
        acc = [_ZERO] * cfg.dim
        for i in g:
            w = weights[i]
            if w < 0:
                raise AssertionError("negative convex coefficient")
            total += w
            for k in range(cfg.dim):
                acc[k] += w * cfg.points[i][k]
        if total != 1 or tuple(acc) != tuple(point):
            raise AssertionError("witness fails exact re-substitution")
