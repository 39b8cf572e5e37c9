from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverberg import lp
from tverberg.engine import random_partition
from tverberg.gen import uniform_ball
from tverberg.geometry import PointConfig, make_config
from tverberg.lift import lift_partition
from tverberg.linalg import clear_denominators, eliminate
from tverberg.lp import _solve_feasibility, hulls_intersect, origin_in_hull
from tverberg.partition import Partition

from conftest import (
    brute_origin_in_hull,
    point_in_hull,
    random_int_config,
    solve_by_cramer,
)

F = Fraction


def test_origin_inside_segment():
    w = origin_in_hull(make_config([(1,), (-1,)]))
    assert w is not None
    coeffs = dict(w)
    assert sum(coeffs.values()) == 1
    assert all(v >= 0 for v in coeffs.values())


def test_origin_outside():
    assert origin_in_hull(make_config([(1,), (2,)])) is None


def test_origin_at_vertex():
    assert origin_in_hull(make_config([(0, 0), (1, 0), (0, 1)])) is not None


def test_origin_subset_restriction():
    # A subset is asked about as its own configuration; an empty one has an
    # empty hull.
    assert origin_in_hull(make_config([(1,), (-1,)])) is not None
    assert origin_in_hull(make_config([(1,), (5,)])) is None
    assert origin_in_hull(PointConfig(dim=1, points=())) is None


def test_witness_reconstructs_origin():
    cfg = make_config([(2, 0), (-1, 1), (-1, -1)])
    w = origin_in_hull(cfg)
    assert w is not None
    coeffs = dict(w)
    for t in range(2):
        assert sum(c * cfg.points[i][t] for i, c in coeffs.items()) == 0


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-4, 4), min_size=d, max_size=d),
            min_size=1,
            max_size=7,
        )
    )
)
def test_origin_in_hull_matches_caratheodory_oracle(points):
    cfg = make_config(points)
    got = origin_in_hull(cfg) is not None
    assert got == brute_origin_in_hull(cfg.points)


def test_hulls_intersect_segments():
    cfg = make_config([(1,), (3,), (2,), (4,)])
    result = hulls_intersect(cfg, [[0, 1], [2, 3]])
    assert result is not None
    point, _ = result
    assert F(2) <= point[0] <= F(3)


def test_hulls_disjoint():
    cfg = make_config([(1,), (2,), (3,), (4,)])
    assert hulls_intersect(cfg, [[0, 1], [2, 3]]) is None


def test_hulls_empty_part_infeasible():
    cfg = make_config([(1,), (2,)])
    assert hulls_intersect(cfg, [[0, 1], []]) is None


def test_hulls_common_point_in_every_hull():
    cfg = make_config([(0, 0), (4, 0), (0, 4), (1, 1), (3, 3), (1, 3)])
    parts = [[0, 1, 2], [3, 4, 5]]
    result = hulls_intersect(cfg, parts)
    assert result is not None
    point, _ = result
    for part in parts:
        assert point_in_hull(point, [cfg.points[i] for i in part])


@pytest.mark.parametrize(
    "parts, message",
    [
        ([[0], [5]], "point index 5 out of range"),
        ([[-1], [1]], "point index -1 out of range"),
        ([[0, 1], [1, 2]], "point index 1 appears in two parts"),
    ],
    ids=["too-large", "negative", "shared"],
)
def test_hulls_intersect_refuses_bad_indices(parts, message):
    # Every bad index is a ValueError, which the CLI maps to exit 2.
    cfg = make_config([(1,), (2,), (3,)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        hulls_intersect(cfg, parts)


def test_hulls_single_part_feasible_iff_nonempty():
    cfg = make_config([(5,), (7,)])
    assert hulls_intersect(cfg, [[0, 1]]) is not None
    assert hulls_intersect(cfg, [[]]) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hulls_intersect_agrees_with_brute_force_on_pairs(seed):
    cfg = random_int_config(6, 2, seed, spread=4)
    parts = [[0, 1, 2], [3, 4, 5]]
    result = hulls_intersect(cfg, parts)
    # brute check: some point of one hull boundary grid... instead verify
    # feasibility against the Minkowski-difference membership 0 in A - B
    diffs = [
        tuple(a - b for a, b in zip(cfg.points[i], cfg.points[j]))
        for i in parts[0]
        for j in parts[1]
    ]
    assert (result is not None) == brute_origin_in_hull(diffs)


def test_search_sized_hulls_witness_pinned():
    # The two hulls of the n=68 calibration search; the common point and
    # coefficients were computed by the Fraction tableau, so they pin the
    # pivot sequence at a realistic size.
    cfg = uniform_ball(68, 2, 1000, 7)
    result = hulls_intersect(cfg, random_partition(68, 2, 0).parts())
    assert result is not None
    point, witness = result
    assert point == (F(542), F(650))
    nonzero = {0: F(1), 7: F(105961, 163966), 11: F(19611, 163966), 40: F(19197, 81983)}
    assert witness == tuple(
        (i, nonzero.get(i, F(0))) for i in range(68)
    )


def test_rational_hulls_witness_pinned():
    # Three hulls of points with denominators 21 and 49, so the LP's rows
    # hold different denominators; pinned from the Fraction-column LP.  The
    # rows share one common denominator: scaling each row apart keeps the
    # solutions but changes the objective row, and so the pivots.
    shift = (F(1, 3), F(2, 7))
    cfg = PointConfig(dim=2, points=tuple(
        tuple((c + s) / 7 for c, s in zip(p, shift))
        for p in uniform_ball(20, 2, 1000, 7).points
    ))
    result = hulls_intersect(cfg, random_partition(20, 3, 23).parts())
    assert result is not None
    point, witness = result
    assert point == (F(-22388323, 648578), F(5039372, 2270023))
    nonzero = {
        3: F(29728637503, 62422760226),
        5: F(210433, 277962),
        6: F(67529, 277962),
        12: F(30992841353, 62422760226),
        13: F(546961, 1111848),
        16: F(564887, 1111848),
        17: F(283546895, 10403793371),
    }
    assert witness == tuple(
        (i, nonzero.get(i, F(0))) for i in range(20)
    )


_ZERO = F(0)
_ONE = F(1)


def _integer_rows(columns, rhs):
    """The system sum_j x_j * columns[j] = rhs as _solve_feasibility's rows
    [RHS | columns], all over one common denominator."""
    table = [[b, *(c[i] for c in columns)] for i, b in enumerate(rhs)]
    flat = clear_denominators([v for row in table for v in row])
    width = len(columns) + 1
    return [list(flat[k : k + width]) for k in range(0, len(flat), width)]


def _fraction_solve_feasibility(columns, rhs):
    """The phase-one simplex over a Fraction tableau, as it ran before the
    integer rows; the reference below."""
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
        _fraction_pivot(rows, z, leave_row, col)
        basis[leave_row] = enter

    objective = sum((rows[i][0] for i in range(m) if basis[i] >= n), _ZERO)
    if objective != 0:
        return None
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i][0]
    return x


def _fraction_pivot(rows, z, pr, pc):
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


# hulls_intersect's systems for two one-point parts on a line: the points 1
# and 1, whose hulls meet at x = (1, 1), and the points -3 and -2.
_ONE_D_HULLS = [
    ([[F(1), F(0), F(1)], [F(0), F(1), F(-1)]], [F(1), F(1), F(0)]),
    ([[F(1), F(0), F(-3)], [F(0), F(1), F(2)]], [F(1), F(1), F(0)]),
]


_entry = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2)]),
    st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def _tie_heavy_systems(draw, max_rows=7, max_columns=12):
    """Systems of m <= max_rows rows and n <= max_columns columns with
    repeated and scaled columns, zero and negative right-hand sides, and
    denominators up to 6; half of the right-hand sides are nonnegative
    combinations of columns, so that feasible, degenerate systems are
    common."""
    m = draw(st.integers(1, max_rows))
    columns: list[list[Fraction]] = []
    for _ in range(draw(st.integers(0, max_columns))):
        if columns and draw(st.booleans()):
            k = draw(st.sampled_from([F(1), F(2), F(1, 2), F(-1), F(3, 2)]))
            columns.append([k * v for v in draw(st.sampled_from(columns))])
        else:
            columns.append(draw(st.lists(_entry, min_size=m, max_size=m)))
    if columns and draw(st.booleans()):
        weights = draw(st.lists(
            st.sampled_from([F(0), F(0), F(1), F(1, 2), F(2)]),
            min_size=len(columns), max_size=len(columns),
        ))
        rhs = [sum((w * c[i] for w, c in zip(weights, columns)), F(0))
               for i in range(m)]
    else:
        rhs = draw(st.lists(st.one_of(st.just(F(0)), _entry), min_size=m, max_size=m))
    return columns, rhs


@settings(max_examples=400, deadline=None)
@given(_tie_heavy_systems())
# Degenerate ties in the ratio test: two rows at ratio 0 on the first pivot,
# and a later tie where the lower basic index sits in the higher row.
@example(([[F(1), F(1)], [F(1), F(0)]], [F(0), F(0)]))
@example((
    [[F(-1), F(2), F(1)], [F(-1), F(1), F(1)], [F(1), F(1), F(0)], [F(0), F(-1), F(0)]],
    [F(1), F(1), F(2)],
))
# hulls_intersect's two one-point systems, where the reference re-enters an
# artificial.
@example(_ONE_D_HULLS[0])
@example(_ONE_D_HULLS[1])
def test_integer_simplex_matches_fraction_tableau(system):
    columns, rhs = system
    got = _solve_feasibility(_integer_rows(columns, rhs))
    assert got == _fraction_solve_feasibility(columns, rhs)


@pytest.mark.parametrize("system", _ONE_D_HULLS)
def test_an_artificial_that_leaves_never_returns(system, monkeypatch):
    # On both systems the artificial of row 2, the coordinate row with
    # right-hand side 0, leaves on the first pivot; the reference's rule lets
    # it back in on a third pivot.
    calls = []
    monkeypatch.setattr(lp, "eliminate", lambda *a: calls.append(a) or eliminate(*a))
    columns, rhs = system
    _solve_feasibility(_integer_rows(columns, rhs))
    # A pivot eliminates the other m - 1 rows and the objective row.
    assert len(calls) == 2 * len(rhs)


def _basic_solution_exists(columns, rhs):
    """A x = b, x >= 0 is feasible exactly when it has a basic solution: some
    linearly independent columns write b with nonnegative weights.  Each
    column subset is solved exactly through its normal equations, whose
    Gram matrix is singular exactly when the columns are dependent, and the
    weights are re-substituted, as conftest's Caratheodory oracle does."""
    if all(b == 0 for b in rhs):
        return True
    for k in range(1, min(len(rhs), len(columns)) + 1):
        for subset in combinations(columns, k):
            gram = [[sum(map(mul, u, v)) for v in subset] for u in subset]
            lam = solve_by_cramer(gram, [sum(map(mul, u, rhs)) for u in subset])
            if lam is None or any(w < 0 for w in lam):
                continue
            if all(sum(map(mul, lam, row)) == b for row, b in zip(zip(*subset), rhs)):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_systems(max_rows=4, max_columns=6))
@example(_ONE_D_HULLS[0])
@example(_ONE_D_HULLS[1])
def test_solve_feasibility_matches_a_basic_solution_oracle(system):
    columns, rhs = system
    x = _solve_feasibility(_integer_rows(columns, rhs))
    assert (x is not None) == _basic_solution_exists(columns, rhs)
    if x is not None:
        assert all(v >= 0 for v in x)
        assert all(
            sum(w * c[i] for w, c in zip(x, columns)) == b for i, b in enumerate(rhs)
        )


def _own_system_origin_in_hull(cfg):
    """origin_in_hull with its own column builder and witness check, as it
    ran before it became the one-point case of hulls_intersect; the
    reference below."""
    d = cfg.dim
    columns = [[*p, _ONE] for p in cfg.points]
    rhs = [_ZERO] * d + [_ONE]
    x = _solve_feasibility(_integer_rows(columns, rhs))
    if x is None:
        return None
    witness = tuple(enumerate(x))
    _check_origin_witness(cfg, witness)
    return witness


def _check_origin_witness(cfg, witness):
    total = _ZERO
    acc = [_ZERO] * cfg.dim
    for i, w in witness:
        if w < 0:
            raise AssertionError("negative convex coefficient")
        if w:  # a zero weight adds exactly nothing
            total += w
            for k in range(cfg.dim):
                acc[k] += w * cfg.points[i][k]
    if total != 1 or any(v != 0 for v in acc):
        raise AssertionError("witness fails exact re-substitution")


_coordinate = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def _membership_queries(draw):
    """Configurations with repeated points, points on a line through the
    origin (so the origin often lies on a hull's boundary), the origin
    itself, and lifted r = 2 and r = 3 configurations."""
    d = draw(st.integers(1, 3))
    points: list[tuple[Fraction, ...]] = []
    for _ in range(draw(st.integers(1, 8))):
        if points and draw(st.booleans()):
            k = draw(st.sampled_from([F(1), F(0), F(-1), F(2), F(-1, 2)]))
            points.append(tuple(k * v for v in draw(st.sampled_from(points))))
        else:
            points.append(tuple(draw(_coordinate) for _ in range(d)))
    cfg = PointConfig(dim=d, points=tuple(points))
    n = len(points)
    r = draw(st.sampled_from([0, 0, 2, 3]))
    if r:
        labels = draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
        cfg = lift_partition(cfg, Partition(r=r, labels=tuple(labels)))
    return cfg


@settings(max_examples=300, deadline=None)
@given(_membership_queries())
# The origin on the boundary: inside an edge with a repeated endpoint, and
# as a repeated vertex.
@example(make_config([(2, 0), (-1, 0), (0, 3), (2, 0)]))
@example(make_config([(0, 0), (1, 2), (0, 0)]))
def test_origin_in_hull_matches_its_own_system(cfg):
    # Witness equality compares the weights exactly.
    assert origin_in_hull(cfg) == _own_system_origin_in_hull(cfg)
