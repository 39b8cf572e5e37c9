from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverberg.depth import (
    _combine,
    _direct_sides,
    _half_turn_counts,
    _idot,
    _line_keys,
    _lift_normal,
    _pencil_walk,
    _search,
    _window_counts,
    block_depth,
    depth,
)
from tverberg.engine import random_partition
from tverberg.gen import uniform_ball
from tverberg.geometry import PointConfig, make_config
from tverberg.lift import lift_partition
from tverberg.linalg import dot, kernel_vector, row_basis
from tverberg.partition import Partition
from tverberg.verify import BudgetExceeded, depth_oracle, tolerance_by_lifted_depth

from conftest import depth_1d, random_int_config

F = Fraction


def test_two_point_line():
    cert = depth(make_config([(1,), (-1,)]), (0,))
    assert cert.depth == 1 and cert.mode == "point-depth"


def test_square_center():
    assert depth(make_config([(1, 1), (1, -1), (-1, 1), (-1, -1)]), (0, 0)).depth == 2


def test_outside_hull():
    assert depth(make_config([(1,), (2,)]), (0,)).depth == 0


def test_center_coincides_with_points():
    # points equal to the center sit in every closed half-space through it
    cert = depth(make_config([(0,), (0,), (3,)]), (0,))
    assert cert.depth == 2


def test_witness_side_counts_match_depth():
    for pts, c in [
        ([(1, 1), (1, -1), (-1, 1), (-1, -1)], (0, 0)),
        ([(1,), (2,), (3,), (-1,)], (0,)),
        ([(2, 3), (0, 1), (-4, 2), (1, 1), (0, -3)], (0, 0)),
        ([(5, 5)], (5, 5)),
    ]:
        cfg = make_config(pts)
        center = tuple(F(x) for x in c)
        cert = depth(cfg, center)
        h = cert.witness
        assert sum(dot(h.normal, p) >= h.offset for p in cfg.points) == cert.depth
        # the witness half-space must contain the center
        assert dot(h.normal, center) >= h.offset


def test_depth_1d_matches_direct_count():
    xs = [F(x) for x in (-3, -1, -1, 0, 2, 2, 5)]
    cfg = make_config([(x,) for x in xs])
    for c in (-4, -1, 0, 1, 2, 6):
        assert depth(cfg, (F(c),)).depth == depth_1d(xs, F(c))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=-3, max_value=3),
)
def test_depth_1d_random(seed, n, c):
    cfg = random_int_config(n, 1, seed, spread=4)
    assert depth(cfg, (F(c),)).depth == depth_1d([p[0] for p in cfg.points], F(c))


_rational = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inside_is_the_witness_closed_side(data):
    # The one integer side test must agree with substituting every point
    # into the Fraction half-space, centre copies included.
    dim = data.draw(st.integers(1, 3))
    vec = st.tuples(*[_rational] * dim)
    points = data.draw(st.lists(vec, min_size=1, max_size=7))
    c = data.draw(st.sampled_from(["zero", "rational", "point"]))
    c = (
        (F(0),) * dim if c == "zero"
        else data.draw(vec) if c == "rational"
        else data.draw(st.sampled_from(points))
    )
    for _ in range(data.draw(st.integers(0, 2))):
        points.insert(data.draw(st.integers(0, len(points))), c)
    cfg = PointConfig(dim=dim, points=tuple(points))
    if data.draw(st.booleans()):
        cert = depth(cfg, c)
    else:
        labels = data.draw(
            st.lists(st.integers(0, 2), min_size=len(points), max_size=len(points))
        )
        blocks = [[i for i, b in enumerate(labels) if b == g] for g in set(labels)]
        cert = block_depth(cfg, blocks, c)
    h = cert.witness
    assert list(cert.inside) == [
        i for i, p in enumerate(cfg.points) if dot(h.normal, p) >= h.offset
    ]
    assert set(cert.to_json()) == {"depth", "mode", "candidate_count", "witness_halfspace"}


def test_oracle_examples():
    assert depth_oracle(make_config([(1, 1), (1, -1), (-1, 1), (-1, -1)]), (0, 0)) == 2
    assert depth_oracle(make_config([(1,), (-1,)]), (0,)) == 1
    assert depth_oracle(make_config([(1,), (2,)]), (0,)) == 0


def test_oracle_budget_refusal():
    cfg = random_int_config(9, 2, 11)
    with pytest.raises(BudgetExceeded) as err:
        depth_oracle(cfg, (0, 0), budget=3)
    assert err.value.required > 3


def test_depth_matches_oracle_small_sweep():
    for seed in range(25):
        n = 4 + seed % 5
        d = 1 + seed % 3
        cfg = random_int_config(n, d, seed * 1009 + 7, spread=3)
        c = (F(0),) * d
        assert depth(cfg, c).depth == depth_oracle(cfg, c)


def test_depth_matches_oracle_at_fourteen_points():
    # Depths 3..5; witness supports cut the oracle's LPs per center from
    # 177..2,782 without pruning to 10..26.
    for seed in range(6):
        cfg = random_int_config(14, 2, 900 + seed, spread=9)
        c = (F(seed % 3 - 1, 2), F(0))
        assert depth(cfg, c).depth == depth_oracle(cfg, c)


def test_oracle_matches_depth_at_points_midpoints_and_empty():
    # The oracle scans removals of the points with c as a fixed part that
    # no removal unit meets; a center on an input point, once or repeated,
    # puts a removable unit at the origin next to it.
    for d in (1, 2, 3):
        assert depth_oracle(PointConfig(d, ()), (F(0),) * d) == 0
        for seed in range(14):
            cfg = random_int_config(1 + seed % 7, d, 4000 + 97 * d + seed, spread=3)
            pts = cfg.points
            repeated = PointConfig(d, pts + (pts[0],))
            mid = tuple((a + b) / 2 for a, b in zip(pts[0], pts[-1]))
            for case, c in ((cfg, pts[-1]), (repeated, pts[0]), (cfg, mid)):
                assert depth_oracle(case, c) == depth(case, c).depth


def test_block_depth_singleton_blocks_equal_depth():
    cfg = random_int_config(6, 2, 42)
    c = (F(0), F(0))
    blocks = [[i] for i in range(6)]
    assert block_depth(cfg, blocks, c).depth == depth(cfg, c).depth


def test_block_depth_two_symmetric_blocks():
    cfg = make_config([(1,), (-1,), (1,), (-1,)])
    cert = block_depth(cfg, [[0, 1], [2, 3]], (0,))
    assert cert.depth == 2 and cert.mode == "block-depth"


def test_block_depth_block_in_open_halfspace():
    # block 2 lies strictly positive; {x <= 0} misses it entirely
    cfg = make_config([(1,), (-1,), (2,), (3,)])
    cert = block_depth(cfg, [[0, 1], [2, 3]], (0,))
    assert cert.depth == 1


def test_block_depth_at_most_number_of_blocks():
    cfg = random_int_config(8, 2, 5)
    blocks = [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert block_depth(cfg, blocks, (F(0), F(0))).depth <= 4


def test_block_depth_requires_cover():
    cfg = make_config([(1,), (2,)])
    with pytest.raises(ValueError):
        block_depth(cfg, [[0]], (0,))
    with pytest.raises(ValueError):
        block_depth(cfg, [[0, 1], [1]], (0,))
    for out_of_range in ([[0], [1, 2]], [[0, 1], [-1]]):
        with pytest.raises(ValueError, match="out of range"):
            block_depth(cfg, out_of_range, (0,))


def test_depth_matches_oracle_on_every_subset():
    cfg = make_config([(2, 0), (0, 2), (-2, -1), (1, 1), (-1, 2)])
    c = (F(0), F(0))
    for size in range(1, len(cfg.points) + 1):
        for subset in combinations(range(len(cfg.points)), size):
            sub = make_config([cfg.points[i] for i in subset])
            assert depth(sub, c).depth == depth_oracle(sub, c)


def test_collinear_in_plane_rank_deficient():
    # all points on a line through c in R^2; depth equals the 1d count
    cfg = make_config([(1, 1), (2, 2), (-1, -1), (-3, -3)])
    cert = depth(cfg, (0, 0))
    assert cert.depth == depth_1d([F(1), F(2), F(-1), F(-3)], F(0))


def test_certificate_json():
    cert = depth(make_config([(1,), (-1,)]), (0,))
    data = cert.to_json()
    assert data["depth"] == 1
    assert set(data["witness_halfspace"]) == {"normal", "offset"}


# Twelve points of the radius-9 disc in a balanced r=3 partition; lifted to
# dimension (d+1)(r-1) = 6, where the direction enumeration runs at k = 6.
_LIFT_POINTS = [(6, -1), (6, 2), (-1, 6), (-3, 4), (-6, -3), (-1, -7),
                (4, 1), (-7, 2), (4, -1), (5, -6), (-3, 0), (2, 6)]
_LIFT_LABELS = (2, 1, 2, 3, 2, 3, 3, 1, 2, 1, 3, 1)


def _lifted_r3():
    cfg = make_config(_LIFT_POINTS)
    return lift_partition(cfg, Partition(r=3, labels=_LIFT_LABELS))


def test_lifted_r3_depth_pinned():
    # count and witness pin the enumeration order and the kernel signs
    lifted = _lifted_r3()
    cert = depth(lifted, (0,) * 6)
    assert cert.depth == 2
    assert cert.candidate_count == 1034
    assert cert.witness.normal == tuple(F(x) for x in (
        -6987500529746196, 1732242610080, -31440287550778382,
        1732242609115, 104805578280033899, -8661213051403,
    ))
    assert cert.witness.offset == 0


def test_lifted_r3_block_depth_pinned():
    lifted = _lifted_r3()
    blocks = [[2 * b, 2 * b + 1] for b in range(6)]
    cert = block_depth(lifted, blocks, (0,) * 6)
    assert cert.depth == 1
    assert cert.candidate_count == 1064
    assert cert.witness.normal == tuple(F(x) for x in (
        -625580762639530884, 560209344, -113751537498641238,
        560208379, -1421736135664820412, -2801047723,
    ))


def test_search_sized_lifted_depth_pinned(monkeypatch):
    # The d=2, r=2 search lifts 68 points to rank 3, where side counts come
    # from the pencil sweep; these values were computed by the per-candidate
    # loop, so they pin the first-minimum tie-break and the candidate count.
    # Only candidates that survive the prune, recursion included, get a
    # kernel vector: 25 of them.
    calls = []

    def counted(rows):
        calls.append(rows)
        return kernel_vector(rows)

    # The package's ``depth`` function shadows its module's name.
    monkeypatch.setattr(sys.modules["tverberg.depth"], "kernel_vector", counted)
    cfg = uniform_ball(68, 2, 1000, 7)
    lifted = lift_partition(cfg, random_partition(68, 2, 0))
    cert = depth(lifted, (0, 0, 0))
    assert cert.depth == 21
    assert cert.candidate_count == 4590
    assert len(calls) == 25
    assert cert.witness.normal == tuple(F(x) for x in (
        6748227237919746087110925525,
        3425778491806712610849644391,
        853996502822372012754617631547,
    ))
    assert cert.witness.offset == 0


@pytest.mark.parametrize(
    "n, dim, radius, seed, value, candidates, normal",
    [
        (40, 4, 1000, 3, 11, 19826, (
            -275896344149722904618774406765153578386990791325863866134688273640,
            857135022162586799202171089211592207008804208512962674867197413784,
            779313137056199563947467364869193167956263583195054707448235681147,
            984812029713604322643659580014357916958841940840709473766064749917,
        )),
        # Coordinates in [-3, 3]: many items share a hyperplane, so the
        # tilt recursion runs and thousands of candidates get a normal.
        (30, 5, 3, 1, 6, 26552, (2125, -2635, 3418, 2123, -3450)),
    ],
    ids=["rank-4", "rank-5"],
)
def test_high_rank_depth_pinned(n, dim, radius, seed, value, candidates, normal):
    # Ranks 4 and 5 walk prefixes of two and three items, whose pencils hold
    # images scaled by a pivot of either sign; the values were computed when
    # the walk still back-substituted its own normals.
    cert = depth(uniform_ball(n, dim, radius, seed), (0,) * dim)
    assert cert.depth == value
    assert cert.candidate_count == candidates
    assert cert.witness.normal == tuple(F(x) for x in normal)
    assert cert.witness.offset == 0


def _count_sides_calls(monkeypatch):
    """Wrap the three side counters so that each call logs its name and
    whether its leaf's c new items pass the size rule, c <= n.bit_length()."""
    module = sys.modules["tverberg.depth"]
    calls = []
    for name in ("_direct_sides", "_window_counts", "_half_turn_counts"):
        def counted(images, fresh, last, name=name, counter=getattr(module, name)):
            n = len(images)
            calls.append((name, n - 1 - last <= n.bit_length()))
            return counter(images, fresh, last)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_point_depth_bisects_every_pencil(monkeypatch):
    # Distinct labels take the bisection counter at every leaf, pencils with
    # few new lines included; repeated labels keep the cross-product rows
    # there.  The outputs are the same either way: only the calls tell.
    calls = _count_sides_calls(monkeypatch)
    depth(uniform_ball(20, 3, 1000, 5), (0, 0, 0))
    cfg = uniform_ball(16, 2, 1000, 7)
    tolerance_by_lifted_depth(cfg, random_partition(16, 2, 0))
    assert set(calls) == {("_half_turn_counts", True), ("_half_turn_counts", False)}
    calls.clear()
    block_depth(_lifted_r3(), [[2 * b, 2 * b + 1] for b in range(6)], (0,) * 6)
    # The bisections come from tilt recursions whose live labels are distinct.
    assert set(calls) == {
        ("_direct_sides", True), ("_window_counts", False), ("_half_turn_counts", True)
    }


def test_planar_depth_pinned():
    # Rank 2: one sweep of the empty prefix's pencil serves every line
    # through the query point.  The per-candidate loop computed these values
    # in 2.6-3.6 s; the sweep must keep its first-minimum tie-break and count.
    cfg = uniform_ball(2000, 2, 1000, 7)
    cert = depth(cfg, (F(1, 3), F(2, 7)))
    assert cert.depth == 940
    assert cert.candidate_count == 4016
    assert cert.witness.normal == (F(-2589206175607051), F(7702402722808384))
    assert cert.witness.offset == F(28089973107600947, 21)


def _distinct_normals(coords, k):
    """(first spanning (k-1)-subset, kernel vector) per hyperplane of the
    length-k integer rows, in ``combinations`` order: every subset gets its
    own kernel vector, and a hash of the vector oriented to a positive
    leading entry drops the hyperplanes already seen.  The enumeration the
    pencil walk replaced; the oracle below."""
    seen = set()
    for subset in combinations(range(len(coords)), k - 1):
        z = kernel_vector([coords[i] for i in subset])
        if z is None:
            continue
        key = z if next(x for x in z if x) > 0 else tuple(-x for x in z)
        if key not in seen:
            seen.add(key)
            yield subset, z


def _dot_sides(z, coords, fresh):
    """Distinct non-None labels strictly on each side of z."""
    return tuple(
        len({f for w, f in zip(coords, fresh) if f is not None and sign * _idot(z, w) > 0})
        for sign in (1, -1)
    )


def _check_walk(coords, fresh, k):
    # Same subsets, in the same order, and side counts that dot products
    # with kernel_vector's normal confirm, once oriented: every item's image
    # determinant against the line's first item has the sign of its dot
    # product, times one orientation per line.
    walk = list(_pencil_walk(coords, fresh))
    oracle = list(_distinct_normals(coords, k))
    assert [subset for subset, _, _ in walk] == [subset for subset, _ in oracle]
    for (subset, swept, images), (_, z) in zip(walk, oracle):
        if images is None:  # rank 1: x > 0 is z = (1,)'s positive side
            orientations = {1}
        else:
            a, b = images[subset[-1]]
            signs = [
                ((a * y > b * x) - (a * y < b * x), (d > 0) - (d < 0))
                for (x, y), d in zip(images, (_idot(z, w) for w in coords))
            ]
            orientations = {o for o in (1, -1) if all(o * s == t for s, t in signs)}
        if len(orientations) == 2:  # rank-deficient rows: every item on the line
            assert swept == (0, 0)
            continue
        assert len(orientations) == 1
        oriented = swept if orientations == {1} else swept[::-1]
        assert oriented == _dot_sides(z, coords, fresh)


@st.composite
def _degenerate_rows(draw):
    """Rows of length k = 1..6 with zero columns, repeated, scaled and
    dependent rows, and entries up to 10^7."""
    k = draw(st.integers(min_value=1, max_value=6))
    bound = draw(st.sampled_from([1, 3, 10**7]))
    entry = st.integers(-bound, bound)
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "repeat", "scale", "combine"]))
        if kind == "fresh" or not rows:
            row = tuple(draw(st.lists(entry, min_size=k, max_size=k)))
        elif kind == "repeat":
            row = draw(st.sampled_from(rows))
        elif kind == "scale":
            c = draw(st.integers(-5, 5))
            row = tuple(c * x for x in draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, e = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = tuple(c * x + e * y for x, y in zip(a, b))
        rows.append(row)
    zero = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    rows = [tuple(0 if j in zero else x for j, x in enumerate(r)) for r in rows]
    return k, rows


_GENERIC_ROWS = [
    (3, -1, 4, 1, -5, 9),
    (2, 6, -5, 3, 5, 8),
    (9, 7, 9, -3, 2, 3),
    (8, 4, 6, 2, 6, -4),
    (3, 3, 8, 3, 2, -7),
    (9, 5, 0, 2, 8, 8),
    (4, -1, 9, 7, 1, 6),
]
# Twelve rows: a leaf after the prefix (0, .., k-3) holds more than log2(12)
# later items and sweeps its pencil; with repeated labels, one near the end
# counts them directly.
_TWELVE_ROWS = _GENERIC_ROWS + [
    (-2, 7, 1, -8, 2, 8),
    (1, 8, -2, 8, -1, 8),
    (2, 8, 4, -5, 9, 0),
    (-4, 5, 2, 3, 5, -3),
    (6, 0, -2, 8, 7, 4),
]


@settings(max_examples=300, deadline=None)
@given(_degenerate_rows())
@example((6, _GENERIC_ROWS))
@example((5, [r[:5] for r in _GENERIC_ROWS]))
@example((4, [r[:4] for r in _GENERIC_ROWS]))
@example((6, _TWELVE_ROWS))
@example((5, [r[:5] for r in _TWELVE_ROWS]))
@example((4, [r[:4] for r in _TWELVE_ROWS]))
@example((3, [r[:3] for r in _TWELVE_ROWS]))
# One row (a, b) takes kernel_vector's normal (-b, a), whose positive side
# is the sweep's det((a, b), w) > 0: no swap at rank 2.
@example((2, [(2, 4), (0, 0), (3, -5)]))
def test_pencil_walk_matches_kernel_vector(case):
    # Raw rows, zero and rank-deficient ones included, with distinct labels.
    k, rows = case
    _check_walk(rows, list(range(len(rows))), k)


def _naive_search(items, labels, hit, counter):
    """The search with candidates from the subset oracle and side counts
    from dot products at every candidate, as it ran before the pencil
    walk; the reference below."""
    if not items:
        return 0, None
    basis = row_basis([w for _, w in items])
    k = len(basis)
    coords = [tuple(_idot(q, w) for q in basis) for _, w in items]
    if k == 1:
        counter[0] += 2
        pos = {labels[i] for (i, _), cv in zip(items, coords) if cv[0] > 0}
        neg = {labels[i] for (i, _), cv in zip(items, coords) if cv[0] < 0}
        val_pos, val_neg = len(pos - hit), len(neg - hit)
        if val_pos <= val_neg:
            return val_pos, basis[0]
        return val_neg, tuple(-x for x in basis[0])
    best_val = best_normal = None
    for _, z in _distinct_normals(coords, k):
        counter[0] += 2
        dots = [_idot(z, cv) for cv in coords]
        boundary = [items[i] for i, s in enumerate(dots) if s == 0]
        for sign in (1, -1):
            new = {labels[idx] for (idx, _), s in zip(items, dots) if s * sign > 0} - hit
            if best_val is not None and len(new) >= best_val:
                continue
            sub_val, sub_normal = _naive_search(boundary, labels, hit | new, counter)
            value = len(new) + sub_val
            if best_val is None or value < best_val:
                best_val = value
                top = _lift_normal(z if sign > 0 else tuple(-x for x in z), basis)
                strict = [items[i][1] for i, s in enumerate(dots) if s != 0]
                best_normal = _combine(top, sub_normal, strict)
                if best_val == 0:
                    return best_val, best_normal
    return best_val, best_normal


_small = st.integers(-3, 3)


@st.composite
def _tie_heavy_items(draw):
    """Nonzero Z^k vectors, k = 2..5, with repeated, antiparallel, scaled
    and dependent members, labelled as points or as blocks, and a nonempty
    hit set."""
    k = draw(st.integers(2, 5))
    vec = st.tuples(*[_small] * k).filter(any)
    size = min(7, 10 - k)  # the oracles enumerate C(n, k - 1) subsets
    vecs = draw(st.lists(vec, min_size=1, max_size=size))
    for _ in range(draw(st.integers(0, size))):
        kind = draw(st.sampled_from(["repeat", "negate", "scale", "combine"]))
        u = draw(st.sampled_from(vecs))
        if kind == "repeat":
            w = u
        elif kind == "negate":
            w = tuple(-x for x in u)
        elif kind == "scale":
            w = tuple(draw(st.sampled_from([-2, 2, 3])) * x for x in u)
        else:
            v = draw(st.sampled_from(vecs))
            a, b = draw(st.sampled_from([1, -1, 2])), draw(st.sampled_from([1, -1, 2]))
            w = tuple(a * x + b * y for x, y in zip(u, v))
        if any(w):
            vecs.append(w)
    order = draw(st.permutations(range(len(vecs))))
    vecs = [vecs[i] for i in order]
    if draw(st.booleans()):
        labels = list(range(len(vecs)))
    else:
        labels = draw(st.lists(st.integers(0, 3), min_size=len(vecs), max_size=len(vecs)))
    hit = draw(st.frozensets(st.sampled_from(sorted(set(labels)) + [99]), min_size=1))
    return list(enumerate(vecs)), labels, hit


# Collinear items have rank 1 at the top level, where the reference keeps
# its own two-direction branch and the search runs its general loop.
_COLLINEAR = [(1, -2, 1), (-2, 4, -2), (3, -6, 3), (-1, 2, -1), (2, -4, 2)]


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_items())
@example((list(enumerate(_COLLINEAR)), [0, 1, 2, 3, 4], frozenset({99})))
@example((list(enumerate(_COLLINEAR)), [0, 1, 0, 2, 2], frozenset({2})))
@example((list(enumerate(_COLLINEAR[:1])), [0], frozenset({0})))
def test_search_matches_per_candidate_reference(case):
    items, labels, hit = case
    counter, naive_counter = [0], [0]
    got = _search(items, labels, hit, counter)
    assert got == _naive_search(items, labels, hit, naive_counter)
    assert counter == naive_counter


# Item 2 is parallel to item 0, so pencil 2 holds no first spanning pair.
_PARALLEL_FIRST = [(1, 0, 0), (0, 1, 0), (-2, 0, 0), (0, 0, 1), (1, 1, 0), (2, 0, 1)]
# Item 2 lies in the span of items 0 and 3 but not of item 0, so the prefix
# (0, 3) is not the greedy basis of its span and holds no first subset.
_NOT_GREEDY = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_items())
@example((list(enumerate(_PARALLEL_FIRST)), [0, 1, 2, 3, 4, 5], frozenset({99})))
@example((list(enumerate(_PARALLEL_FIRST)), [0, 1, 0, 2, 1, 2], frozenset({2})))
@example((list(enumerate(_NOT_GREEDY)), [0, 1, 2, 3, 4, 5], frozenset({99})))
@example((list(enumerate(_TWELVE_ROWS)), [0, 1, 2, 3] * 3, frozenset({3})))
@example((list(enumerate([r[:5] for r in _TWELVE_ROWS])), [0, 1, 2] * 4, frozenset({99})))
@example((list(enumerate([r[:4] for r in _TWELVE_ROWS])), [0, 1, 2, 3] * 3, frozenset({0})))
@example((list(enumerate([r[:3] for r in _TWELVE_ROWS])), [0, 1, 2] * 4, frozenset({99})))
def test_pencil_walk_matches_distinct_normals_and_dot_products(case):
    # The walk replaces the subset oracle at every rank: the same first
    # spanning subsets in the same order, the same normals, and side counts
    # of the labels not yet hit that dot products confirm.  Items are in
    # basis coordinates, as the search passes them.
    items, labels, hit = case
    basis = row_basis([w for _, w in items])
    coords = [tuple(_idot(q, w) for q in basis) for _, w in items]
    dense = {}
    fresh = [None if l in hit else dense.setdefault(l, len(dense)) for l in labels]
    _check_walk(coords, fresh, len(basis))


def _clockwise(u, v):
    """The comparator the angle sort used before its integer keys: negative
    when v turns counterclockwise from u by less than a half turn."""
    return u[1] * v[0] - u[0] * v[1]


def _upper(x, y):
    """The primitive upper ray (y > 0, or y = 0 and x > 0) of the line
    through the nonzero vector (x, y)."""
    g = gcd(x, y) if y > 0 or (y == 0 and x > 0) else -gcd(x, y)
    return x // g, y // g


_coordinate = st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))
# Consecutive Fibonacci numbers F89..F92: neighbouring slopes differ by
# only 1 / (y1 * y2), which a key scale below max y^2 cannot resolve.
_F89, _F90, _F91, _F92 = (1779979416004714189, 2880067194370816120,
                          4660046610375530309, 7540113804746346429)
_WIDE = [(2**64 + 1, 2**64), (2**64, 2**64 - 1), (-1, 0), (-(2**64), 2**64 - 1)]
_FIBONACCI = [(_F91, _F90), (_F90, _F89), (_F92, _F91), (-_F91, _F90), (-_F92, _F91), (-_F90, _F89)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_coordinate, _coordinate).filter(any), min_size=1, max_size=12))
@example([(1, 0), (-1, 0), (0, 1), (0, -1)])
@example(_WIDE)
@example(_FIBONACCI)
# Scaled and negated copies raise max y^2 without adding a line.
@example(_WIDE + [(3 * x, 3 * y) for x, y in _WIDE] + [(-5 * x, -5 * y) for x, y in _WIDE])
@example(_FIBONACCI + [(-2 * x, -2 * y) for x, y in _FIBONACCI] + [(7 * x, 7 * y) for x, y in _FIBONACCI])
def test_angle_keys_order_rays_as_the_comparator(vecs):
    # Raw images, as a leaf holds them: two share a key exactly when they
    # span one line, and the keys sort the lines' upper rays as the
    # comparator does, so the sweep's full turn follows.
    keys = _line_keys(vecs)
    for (x, y), key in zip(vecs, keys):
        for (u, v), other in zip(vecs, keys):
            assert (key == other) == (x * v - y * u == 0)
    by_key = {key: _upper(x, y) for (x, y), key in zip(vecs, keys)}
    assert [by_key[key] for key in sorted(by_key)] == sorted(
        set(by_key.values()), key=cmp_to_key(_clockwise)
    )


@st.composite
def _direction_groups(draw):
    """Lines through the origin, keyed by their upper rays, each with its
    first item's ray and a label list per ray: repeated labels and empty
    rays included."""
    vec = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)
    lines = draw(st.lists(vec.map(lambda v: _upper(*v)), min_size=1, max_size=8, unique=True))
    labels = st.lists(st.integers(0, 4), max_size=3)
    return {line: (draw(st.booleans()), draw(labels), draw(labels)) for line in lines}


@settings(max_examples=300, deadline=None)
@given(_direction_groups(), st.integers(1, 3))
@example({(1, 0): (True, [0, 1, 0], [1])}, 1)
@example({(1, 0): (True, [0], []), (0, 1): (False, [], [0, 0])}, 2)
def test_window_counts_match_a_direct_count(groups, scale):
    # Distinct labels strictly on each side of each line's first item,
    # counted ray by ray from the signs of cross products.  Items 0..L-1
    # start the lines, in the groups' order, and hold no label; the labels
    # follow on scaled copies of their rays, and zero images pad the label
    # ids below the number of items.
    firsts = [(x, y) if up else (-x, -y) for (x, y), (up, _, _) in groups.items()]
    images, fresh, rays = firsts + [(0, 0)] * 5, [None] * (len(firsts) + 5), []
    for (x, y), (_, upper, lower) in groups.items():
        for ray, labels in (((x, y), upper), ((-x, -y), lower)):
            rays.append((ray, labels))
            images += [(scale * ray[0], scale * ray[1])] * len(labels)
            fresh += labels
    expected = []
    for j, (x, y) in enumerate(firsts):
        sides = [
            {l for (u, v), labels in rays if sign * (x * v - y * u) > 0 for l in labels}
            for sign in (1, -1)
        ]
        expected.append((j, len(sides[0]), len(sides[1])))
    assert _window_counts(images, fresh, -1) == expected


@st.composite
def _leaves(draw, distinct=False):
    """A leaf's images with zero, parallel, antiparallel and scaled members,
    labels with repeats (or, if ``distinct``, a permutation of the item ids)
    and None, and the last prefix item."""
    vec = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    images = draw(st.lists(vec, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.sampled_from(images))
        c = draw(st.sampled_from([1, 1, -1, 2, -3, 0]))
        images.insert(draw(st.integers(0, len(images))), (c * x, c * y))
    if distinct:
        ids = draw(st.permutations(range(len(images))))
        fresh = [draw(st.none() | st.just(i)) for i in ids]
    else:
        label = st.none() | st.integers(0, min(4, len(images) - 1))  # ids below the item count
        fresh = draw(st.lists(label, min_size=len(images), max_size=len(images)))
    return images, fresh, draw(st.integers(-1, len(images) - 1))


@settings(max_examples=300, deadline=None)
@given(_leaves())
# A pencil with one line.
@example(([(0, 0), (2, -1), (-4, 2), (6, -3)], [0, 1, 2, 1], 0))
# The only later item lies on an earlier line: no candidate.
@example(([(1, 2), (0, 0), (3, 1), (-2, -4)], [0, 1, 2, 3], 2))
def test_direct_sides_match_window_counts(leaf):
    # The two ways a leaf counts the sides of its candidate lines agree
    # line for line, in the same order.
    images, fresh, last = leaf
    assert _direct_sides(images, fresh, last) == _window_counts(images, fresh, last)


@settings(max_examples=500, deadline=None)
@given(_leaves(distinct=True))
@example((_WIDE, [0, 1, 2, 3], -1))
@example((_FIBONACCI, [5, None, 3, 0, 1, 2], 0))
# Scaled and negated copies share their lines; hit items (None) ride along.
@example((_WIDE + [(3 * x, 3 * y) for x, y in _WIDE] + [(-5 * x, -5 * y) for x, y in _WIDE],
          [None, 1, 2, 3, 4, None, 6, 7, 8, 9, 10, 11], -1))
@example((_FIBONACCI + [(-2 * x, -2 * y) for x, y in _FIBONACCI] + [(0, 0)],
          [0, 1, 2, 3, 4, 5, 6, 7, None, 9, 10, 11, 12], 1))
def test_half_turn_counts_match_the_label_counters(leaf):
    # With distinct live labels a side's count is its number of live items:
    # the bisection counter agrees with the label window and the direct rows
    # line for line, in the same order.
    images, fresh, last = leaf
    expected = _window_counts(images, fresh, last)
    assert _half_turn_counts(images, fresh, last) == expected
    assert _direct_sides(images, fresh, last) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cutoff_is_exact_at_or_above_at_least_and_a_refuting_side_below(data):
    # With at_least=m the search may stop at the first side touching fewer
    # than m blocks; a depth of at least m must come back field for field.
    dim = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 9))
    coord = st.builds(F, st.integers(-4, 4), st.integers(1, 2))
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    cfg = PointConfig(dim=dim, points=tuple(points))
    c = data.draw(st.tuples(*[coord] * dim))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    m = data.draw(st.integers(0, n + 1))
    for full, cut, unit_of in (
        (depth(cfg, c), depth(cfg, c, at_least=m), list(range(n))),
        (block_depth(cfg, blocks, c), block_depth(cfg, blocks, c, at_least=m), labels),
    ):
        if full.depth >= m:
            assert cut == full
        else:
            assert full.depth <= cut.depth < m
            assert len({unit_of[i] for i in cut.inside}) == cut.depth
            assert cut.witness.normal != (0,) * dim
            h = cut.witness
            assert all(dot(h.normal, cfg.points[i]) >= h.offset for i in cut.inside)
