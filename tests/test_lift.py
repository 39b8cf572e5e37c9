"""Tensor lift: companion vectors, layout, and recovery."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverberg.geometry import PointConfig
from tverberg.lift import lift_partition, recover_common_point
from tverberg.linalg import clear_denominators, row_basis
from tverberg.lp import hulls_intersect, origin_in_hull
from tverberg.partition import Partition

from conftest import all_labelings, point_in_hull, random_int_config

F = Fraction


def _companions(r):
    """u_1, ..., u_r read off the lift of the point a = 0 once per part:
    (0, 1) (x) u_j is r - 1 zeros followed by u_j."""
    cfg = PointConfig(dim=1, points=((F(0),),) * r)
    lifted = lift_partition(cfg, Partition(r=r, labels=tuple(range(1, r + 1))))
    return tuple(q[r - 1 :] for q in lifted.points)


def _lift_one(a, label, r):
    cfg = PointConfig(dim=len(a), points=(tuple(F(x) for x in a),))
    return lift_partition(cfg, Partition(r=r, labels=(label,))).points[0]


def test_companion_basis_small_cases():
    assert _companions(2) == ((F(1),), (F(-1),))
    assert _companions(3) == ((F(1), F(0)), (F(0), F(1)), (F(-1), F(-1)))


def test_companion_basis_rejects_single_part():
    cfg = PointConfig(dim=1, points=((F(0),),))
    with pytest.raises(ValueError, match="two parts"):
        lift_partition(cfg, Partition(r=1, labels=(1,)))


@pytest.mark.parametrize("r", range(2, 13))
def test_companion_basis_kernel_is_all_ones(r):
    vectors = _companions(r)
    assert all(len(u) == r - 1 for u in vectors)
    # The only dependence is the all-equal one: columns sum to zero and the
    # (r-1) x r matrix has full row rank, so the kernel is exactly span(1..1).
    for t in range(r - 1):
        assert sum(u[t] for u in vectors) == 0
    rows = [clear_denominators(tuple(u[t] for u in vectors)) for t in range(r - 1)]
    assert len(row_basis(rows)) == r - 1


def test_lift_point_line_examples():
    assert _lift_one((5,), 1, 2) == (F(5), F(1))
    assert _lift_one((5,), 2, 2) == (F(-5), F(-1))


def test_lift_point_row_major_layout():
    # b = (2, 3, 1) against u_1 = (1, 0); rows of b, flattened by rows.
    got = _lift_one((2, 3), 1, 3)
    assert got == (F(2), F(0), F(3), F(0), F(1), F(0))


def test_lift_point_zero_source_keeps_only_appended_row():
    got = _lift_one((0, 0), 3, 3)
    assert got == (F(0), F(0), F(0), F(0), F(-1), F(-1))


def test_lift_partition_plain_two_points():
    cfg = PointConfig(dim=1, points=((F(1),), (F(-1),)))
    p = Partition(r=2, labels=(1, 2))
    lift = lift_partition(cfg, p)
    assert lift.points == ((F(1), F(1)), (F(1), F(-1)))
    assert lift.dim == 2


def test_lift_partition_label_alignment_checked():
    cfg = PointConfig(dim=1, points=((F(1),), (F(-1),)))
    with pytest.raises(ValueError):
        lift_partition(cfg, Partition(r=2, labels=(1, 2, 1)))


def _lifted_witness(cfg, p, removal=()):
    """Witness for the origin in the lift of the points that survive the
    removal, a sub-configuration lifted as reay_tolerance lifts one; its
    indices are mapped back to cfg's."""
    members = [j for j in range(len(cfg.points)) if j not in set(removal)]
    sub_cfg = PointConfig(dim=cfg.dim, points=tuple(cfg.points[j] for j in members))
    sub_p = Partition(r=p.r, labels=tuple(p.labels[j] for j in members))
    found = origin_in_hull(lift_partition(sub_cfg, sub_p))
    if found is None:
        return None
    return tuple((members[j], w) for j, w in found)


def test_recover_symmetric_instance_balanced_witness_gives_origin():
    # Both parts span [-1, 1]; the balanced witness recovers the midpoint.
    cfg = PointConfig(
        dim=1, points=((F(-1),), (F(1),), (F(-1),), (F(1),))
    )
    p = Partition(r=2, labels=(1, 1, 2, 2))
    quarter = F(1, 4)
    balanced = tuple((j, quarter) for j in range(4))
    assert recover_common_point(cfg, p, balanced) == (F(0),)
    # Whatever witness the solver picks must still recover a common point.
    solved = _lifted_witness(cfg, p)
    assert solved is not None
    point = recover_common_point(cfg, p, solved)
    assert F(-1) <= point[0] <= F(1)


def test_recover_point_lies_in_every_surviving_part():
    for seed in range(6):
        cfg = random_int_config(7, 2, seed=seed)
        p = Partition(r=2, labels=(1, 2, 1, 2, 1, 2, 1))
        for removal in [(), (0,), (3, 6)]:
            witness = _lifted_witness(cfg, p, removal)
            if witness is None:
                continue
            point = recover_common_point(cfg, p, witness)
            for members in p.parts():
                alive = [cfg.points[i] for i in members if i not in removal]
                assert point_in_hull(point, alive)


def test_recover_rejects_negative_weight():
    cfg = PointConfig(dim=1, points=((F(1),), (F(-1),)))
    p = Partition(r=2, labels=(1, 2))
    bad = ((0, F(3, 2)), (1, F(-1, 2)))
    with pytest.raises(ValueError, match="negative"):
        recover_common_point(cfg, p, bad)


def test_recover_rejects_unknown_lifted_index():
    cfg = PointConfig(dim=1, points=((F(1),), (F(-1),)))
    p = Partition(r=2, labels=(1, 2))
    bad = ((5, F(1)),)
    with pytest.raises(ValueError, match="unknown"):
        recover_common_point(cfg, p, bad)


def test_recover_rejects_non_witness_weights():
    # Valid indices, but the weights do not place the origin.
    cfg = PointConfig(dim=1, points=((F(1),), (F(-1),)))
    p = Partition(r=2, labels=(1, 2))
    bad = ((0, F(3, 4)), (1, F(1, 4)))
    with pytest.raises(ValueError, match="re-substitution"):
        recover_common_point(cfg, p, bad)


def _bridge_agrees(cfg, p, removal):
    """Hull intersection on survivors vs origin membership in the lift."""
    survivors_by_part = [
        [i for i in members if i not in removal] for members in p.parts()
    ]
    direct = hulls_intersect(cfg, survivors_by_part)
    lifted = _lifted_witness(cfg, p, removal)
    return (direct is not None) == (lifted is not None)


def test_round_trip_all_labelings_line():
    cfg = PointConfig(dim=1, points=tuple((F(v),) for v in (0, 1, 3, 4, 7)))
    n = len(cfg.points)
    for labels in all_labelings(n, 2):
        p = Partition(r=2, labels=labels)
        for size in (0, 1, 2):
            for removal in combinations(range(n), size):
                assert _bridge_agrees(cfg, p, set(removal))


def test_round_trip_planar_three_parts():
    cfg = random_int_config(6, 2, seed=11)
    for labels in all_labelings(6, 3):
        p = Partition(r=3, labels=labels)
        for removal in [set(), {0}, {4}, {1, 5}]:
            assert _bridge_agrees(cfg, p, removal)


_ZERO = F(0)
_ONE = F(1)


def _lifted_recover_common_point(cfg, p, lifted_witness):
    """recover_common_point as it ran when it re-lifted the partition and
    re-substituted the witness in lifted space; the reference below."""
    lift = lift_partition(cfg, p)
    weights = dict(lifted_witness)

    total = _ZERO
    acc = [_ZERO] * lift.dim
    for j, w in weights.items():
        if not 0 <= j < len(lift.points):
            raise ValueError(f"witness refers to unknown lifted point {j}")
        if w < 0:
            raise ValueError("witness fails re-substitution: negative weight")
        total += w
        for t, x in enumerate(lift.points[j]):
            acc[t] += w * x
    if total != 1 or any(v != 0 for v in acc):
        raise ValueError("witness fails re-substitution")

    # Per part, the weighted sum of (a, 1); the companion kernel forces all
    # of these to agree, and the last coordinate is the part's weight mass.
    part_ids = range(1, p.r + 1)
    sums = {j: [_ZERO] * (cfg.dim + 1) for j in part_ids}
    for j, w in weights.items():
        part = p.labels[j]
        b = tuple(cfg.points[j]) + (_ONE,)
        for t, x in enumerate(b):
            sums[part][t] += w * x
    reference = sums[1]
    for j in part_ids[1:]:
        if sums[j] != reference:
            raise ValueError(
                "witness fails re-substitution: part sums disagree "
                "(a removal emptied some part, or the weights are invalid)"
            )
    mass = reference[cfg.dim]
    if mass <= 0:
        raise ValueError("witness fails re-substitution: zero part mass")
    return tuple(x / mass for x in reference[: cfg.dim])


_weight = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(1), F(-1, 2)])


@st.composite
def _recovery_cases(draw):
    """(cfg, p, witness): LP witnesses for the lifted origin, some found
    after a removal of up to two points, and
    the same witnesses scaled, with weight moved between two indices (in
    range or not), or replaced by random weights, often normalized to one.
    Half the configurations end in one point repeated once per part, so
    that their hulls meet and valid r = 3 witnesses are common."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 8))
    points = list(random_int_config(n, draw(st.integers(1, 2)), draw(st.integers(0, 999)), spread=3).points)
    labels = draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
    if draw(st.booleans()):
        points[-r:] = [points[-1]] * r
        labels[-r:] = range(1, r + 1)
    cfg = PointConfig(dim=len(points[0]), points=tuple(points))
    p = Partition(r=r, labels=tuple(labels))
    removal = draw(st.sets(st.integers(0, n - 1), max_size=2))
    found = _lifted_witness(cfg, p, removal)
    weights = dict(found) if found is not None else {}
    kind = draw(st.sampled_from(["lp", "scaled", "moved", "moved", "random"]))
    index = st.integers(-1, n)
    if draw(st.booleans()):  # move weight inside one part, keeping its mass
        index = st.sampled_from(p.parts()[draw(st.integers(1, r)) - 1] or [n])
    if kind == "scaled":
        k = draw(st.sampled_from([F(0), F(1, 2), F(2)]))
        weights = {j: k * w for j, w in weights.items()}
    elif kind == "moved":
        i, j = draw(index), draw(index)
        delta = draw(st.sampled_from([F(1, 2), F(1), F(2), F(-1)])) * (
            weights.get(i) or F(1, 4)
        )
        weights[i] = weights.get(i, _ZERO) - delta
        weights[j] = weights.get(j, _ZERO) + delta
    elif kind == "random":
        weights = draw(st.dictionaries(index, _weight, max_size=n))
        total = sum(weights.values(), _ZERO)
        if total > 0 and draw(st.booleans()):
            weights = {j: w / total for j, w in weights.items()}
    witness = tuple(weights.items())
    return cfg, p, witness


def _recovery(fn, case):
    try:
        return fn(*case)
    except ValueError as exc:
        return str(exc)


def _case(points, labels, weights):
    cfg = PointConfig(dim=1, points=tuple((F(v),) for v in points))
    witness = tuple(enumerate(weights))
    return cfg, Partition(r=max(labels), labels=labels), witness


@settings(max_examples=300, deadline=None)
@given(_recovery_cases())
# Part sums that agree but weights that sum to two; and parts 1 and 2 that
# agree while part 3 does not, with and without weight on parts 1 and 2.
@example(_case([0, 0], (1, 2), [F(1), F(1)]))
@example(_case([0, 0, 0, 3], (1, 2, 3, 3), [F(1, 3), F(1, 3), F(1, 6), F(1, 6)]))
@example(_case([0, 0, 3], (1, 2, 3), [F(0), F(0), F(1)]))
def test_recovery_matches_lifted_re_substitution(case):
    assert _recovery(recover_common_point, case) == _recovery(
        _lifted_recover_common_point, case
    )
