"""Tolerance certification: lifted depth vs exhaustive oracle, reports."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tverberg.engine import certified_partition, random_partition
from tverberg.gen import line_points, uniform_ball
from tverberg.geometry import PointConfig
from tverberg.lift import lift_partition, recover_common_point
from tverberg.linalg import dot
from tverberg.lp import hulls_intersect
from tverberg.partition import Partition
from tverberg.plot import render_svg
from tverberg.rng import SplitMix64
from tverberg import verify
from tverberg.verify import (
    EXHAUSTIVE,
    LIFTED,
    BudgetExceeded,
    ReayReport,
    ToleranceReport,
    colored_tolerance,
    depth_oracle,
    reay_tolerance,
    tolerance_by_lifted_depth,
    tolerance_exhaustive,
)

from conftest import (
    all_labelings,
    labelings_up_to_relabelling,
    point_in_hull,
    random_int_config,
)

F = Fraction


def _survivors(p, removal):
    return [
        [i for i in members if i not in removal] for members in p.parts()
    ]


def test_empty_part_means_not_tverberg():
    cfg = line_points(4)
    p = Partition(r=2, labels=(1, 1, 1, 1))
    for report in (tolerance_by_lifted_depth(cfg, p), tolerance_exhaustive(cfg, p)):
        assert report.tolerance == -1
        assert report.witness_removal == ()
        assert report.common_point is None


def test_methods_agree_on_all_small_labelings():
    cfg = line_points(4)
    for labels in all_labelings(4, 2):
        p = Partition(r=2, labels=labels)
        lifted = tolerance_by_lifted_depth(cfg, p)
        exhaustive = tolerance_exhaustive(cfg, p)
        assert lifted.tolerance == exhaustive.tolerance
        # Four points into two parts: some part has at most 2 points,
        # and removing it entirely caps the tolerance below 2.
        assert lifted.tolerance <= 1


def test_alternating_line_partition_tolerance():
    cfg = line_points(8)
    p = Partition(r=2, labels=(1, 2, 1, 2, 1, 2, 1, 2))
    lifted = tolerance_by_lifted_depth(cfg, p)
    exhaustive = tolerance_exhaustive(cfg, p)
    assert lifted.tolerance == exhaustive.tolerance
    assert lifted.method == LIFTED
    assert exhaustive.method == EXHAUSTIVE
    assert lifted.unit == exhaustive.unit == "points"


def test_witness_removal_breaks_intersection():
    cfg = random_int_config(8, 2, seed=3)
    for labels in [(1, 2, 1, 2, 1, 2, 1, 2), (1, 1, 2, 2, 1, 1, 2, 2)]:
        p = Partition(r=2, labels=labels)
        report = tolerance_by_lifted_depth(cfg, p)
        assert report.witness_removal is not None
        assert len(report.witness_removal) == report.tolerance + 1
        assert hulls_intersect(cfg, _survivors(p, set(report.witness_removal))) is None


def test_common_point_in_every_part_hull():
    cfg = random_int_config(9, 2, seed=14)
    p = Partition(r=3, labels=(1, 2, 3, 1, 2, 3, 1, 2, 3))
    report = tolerance_by_lifted_depth(cfg, p)
    if report.tolerance >= 0:
        assert report.common_point is not None
        for members in p.parts():
            assert point_in_hull(report.common_point, [cfg.points[i] for i in members])


def test_any_subminimal_removal_survives():
    # Exhaustive certification means every removal of size <= tolerance
    # leaves a common point.
    cfg = line_points(7)
    p = Partition(r=2, labels=(1, 2, 1, 2, 1, 2, 1))
    report = tolerance_exhaustive(cfg, p)
    t = report.tolerance
    assert t >= 0
    for size in range(t + 1):
        for removal in combinations(range(7), size):
            assert hulls_intersect(cfg, _survivors(p, set(removal))) is not None


def test_deleting_a_point_cannot_raise_tolerance():
    base = random_int_config(7, 1, seed=21)
    p = Partition(r=2, labels=(1, 2, 1, 2, 1, 2, 1))
    full = tolerance_exhaustive(base, p).tolerance
    for drop in range(7):
        cfg = PointConfig(
            dim=1,
            points=tuple(pt for i, pt in enumerate(base.points) if i != drop),
        )
        labels = tuple(l for i, l in enumerate(p.labels) if i != drop)
        shrunk = tolerance_exhaustive(cfg, Partition(r=2, labels=labels))
        assert shrunk.tolerance <= full


def test_exhaustive_cap_reports_no_witness():
    cfg = line_points(10)
    p = Partition(r=2, labels=(1, 2) * 5)
    capped = tolerance_exhaustive(cfg, p, t_cap=0)
    assert capped.tolerance == 0
    assert capped.witness_removal is None
    full = tolerance_exhaustive(cfg, p)
    assert full.tolerance >= capped.tolerance
    # A cap at the tolerance still scans the breaking size: the full report.
    assert tolerance_exhaustive(cfg, p, t_cap=full.tolerance) == full


def test_exhaustive_budget_enforced():
    cfg = line_points(14)
    p = Partition(r=2, labels=(1, 2) * 7)
    with pytest.raises(BudgetExceeded) as info:
        tolerance_exhaustive(cfg, p, budget=10)
    assert info.value.required > 10


def test_colored_singleton_classes_match_point_tolerance():
    # One point per class and a single part: removing a class is exactly
    # removing a point, so class tolerance equals point tolerance.
    points = tuple((F(v),) for v in (0, 1, 2, 5, 9))
    cfg = PointConfig(dim=1, points=points, colors=(1, 2, 3, 4, 5))
    p = Partition(r=1, labels=(1, 1, 1, 1, 1))
    colored = colored_tolerance(cfg, p, method=EXHAUSTIVE)
    plain = tolerance_exhaustive(cfg, p)
    assert colored.tolerance == plain.tolerance
    assert colored.unit == "classes"


def test_colored_methods_agree_on_rainbow_instance():
    points = tuple(
        (F(x), F(y))
        for x, y in [(0, 0), (4, 0), (0, 4), (4, 4), (2, -1), (2, 5)]
    )
    cfg = PointConfig(dim=2, points=points, colors=(1, 1, 2, 2, 3, 3))
    p = Partition(r=2, labels=(1, 2, 2, 1, 1, 2))
    lifted = colored_tolerance(cfg, p, method=LIFTED)
    exhaustive = colored_tolerance(cfg, p, method=EXHAUSTIVE)
    assert lifted.tolerance == exhaustive.tolerance
    assert lifted.unit == exhaustive.unit == "classes"
    if exhaustive.witness_removal is not None:
        # Removing the witness classes kills every common point.
        gone = {
            i
            for color in exhaustive.witness_removal
            for i in cfg.color_classes()[color]
        }
        assert hulls_intersect(cfg, _survivors(p, gone)) is None


def test_colored_requires_rainbow_partition():
    points = tuple((F(v),) for v in (0, 1, 2, 3))
    cfg = PointConfig(dim=1, points=points, colors=(1, 1, 2, 2))
    lopsided = Partition(r=2, labels=(1, 1, 2, 2))
    with pytest.raises(ValueError):
        colored_tolerance(cfg, lopsided)


@pytest.mark.parametrize(
    "compute, message",
    [
        (
            lambda cfg, p: colored_tolerance(
                PointConfig(dim=1, points=cfg.points, colors=(1, 1, 1, 2)), p
            ),
            "color classes must all have the same size",
        ),
        (
            lambda cfg, p: colored_tolerance(
                PointConfig(dim=1, points=cfg.points, colors=(1, 1, 1, 1)), p
            ),
            "color classes have 4 points, expected 2",
        ),
        (
            lambda cfg, p: colored_tolerance(cfg, p, method="oracle"),
            "unknown method 'oracle'",
        ),
        (
            lambda cfg, p: tolerance_exhaustive(cfg, p, t_cap=-1),
            "t_cap must be nonnegative",
        ),
    ],
    ids=["colored-class-size", "colored-class-r", "colored-method", "exhaustive-t_cap"],
)
def test_invalid_arguments_are_refused(compute, message):
    points = tuple((F(v),) for v in (0, 1, 2, 3))
    cfg = PointConfig(dim=1, points=points, colors=(1, 1, 2, 2))
    p = Partition(r=2, labels=(1, 2, 2, 1))
    with pytest.raises(ValueError, match=f"^{message}$"):
        compute(cfg, p)


@pytest.mark.parametrize(
    "compute, knob",
    [
        (lambda cfg, p: colored_tolerance(cfg, p, method=LIFTED, t_cap=0), "t_cap"),
        (lambda cfg, p: colored_tolerance(cfg, p, method=LIFTED, budget=1), "budget"),
        (lambda cfg, p: reay_tolerance(cfg, p, 2, budget=1), "budget"),
    ],
    ids=["colored-t_cap", "colored-budget", "reay-budget"],
)
def test_lifted_route_rejects_exhaustive_knobs(compute, knob):
    # The lifted route has no cap or budget; a knob it would drop is refused.
    points = tuple((F(v),) for v in (0, 1, 2, 3))
    cfg = PointConfig(dim=1, points=points, colors=(1, 1, 2, 2))
    p = Partition(r=2, labels=(1, 2, 2, 1))
    with pytest.raises(ValueError, match=f"^{knob} applies to the exhaustive"):
        compute(cfg, p)


@pytest.mark.parametrize(
    "check",
    [
        lambda cfg, p: lift_partition(cfg, p),
        lambda cfg, p: recover_common_point(cfg, p, ((0, F(1)),)),
        lambda cfg, p: tolerance_by_lifted_depth(cfg, p),
        lambda cfg, p: tolerance_exhaustive(cfg, p),
        lambda cfg, p: colored_tolerance(cfg, p),
        lambda cfg, p: reay_tolerance(cfg, p, 2),
        lambda cfg, p: render_svg(cfg, partition=p),
    ],
    ids=[
        "lift_partition",
        "recover_common_point",
        "tolerance_by_lifted_depth",
        "tolerance_exhaustive",
        "colored_tolerance",
        "reay_tolerance",
        "render_svg",
    ],
)
def test_every_entry_point_rejects_a_wrong_label_count(check):
    points = tuple((F(x), F(y)) for x, y in [(0, 0), (4, 0), (0, 4), (4, 4)])
    cfg = PointConfig(dim=2, points=points, colors=(1, 1, 2, 2))
    for labels in [(1, 2, 1), (1, 2, 1, 2, 1)]:
        with pytest.raises(
            ValueError, match="^partition labels a different number of points$"
        ):
            check(cfg, Partition(r=2, labels=labels))


def test_reay_minimum_over_tuples():
    cfg = random_int_config(9, 1, seed=8)
    p = Partition(r=3, labels=(1, 2, 3, 1, 2, 3, 1, 2, 3))
    report = reay_tolerance(cfg, p, 2)
    assert len(report.tuples) == 3
    assert report.tolerance == min(rep.tolerance for _, rep in report.tuples)
    # Every pair's own tolerance is at least the overall guarantee.
    for parts, rep in report.tuples:
        assert len(parts) == 2
        assert rep.tolerance >= report.tolerance


def test_reay_with_all_parts_matches_plain_tolerance():
    cfg = random_int_config(8, 1, seed=4)
    p = Partition(r=2, labels=(1, 2, 1, 2, 1, 2, 1, 2))
    report = reay_tolerance(cfg, p, 2)
    assert report.tolerance == tolerance_by_lifted_depth(cfg, p).tolerance


def test_reay_methods_agree():
    cfg = random_int_config(9, 1, seed=30)
    p = Partition(r=3, labels=(1, 2, 3, 3, 2, 1, 1, 2, 3))
    lifted = reay_tolerance(cfg, p, 2, method=LIFTED)
    exhaustive = reay_tolerance(cfg, p, 2, method=EXHAUSTIVE)
    assert lifted.tolerance == exhaustive.tolerance


def test_reay_k_larger_never_raises_tolerance():
    cfg = random_int_config(12, 1, seed=2)
    p = Partition(r=3, labels=(1, 2, 3) * 4)
    pairwise = reay_tolerance(cfg, p, 2).tolerance
    overall = reay_tolerance(cfg, p, 3).tolerance
    assert overall <= pairwise


@st.composite
def _centred_partitions(draw):
    """d = 1 with r = 3 or 4, or d = 2 with r = 4.  Each part holds d + 1
    points whose sum is a small nudge, so its hull nearly always holds a
    neighbourhood of the origin and most partitions have tolerance >= 0; at
    d = 1 some parts hold two such sets.  Up to two free points join random
    parts, so n <= 14 at rank 9."""
    dim, r = draw(st.sampled_from([(1, 3), (1, 4), (2, 4), (2, 4)]))
    coord = st.integers(-9, 9)
    points, labels = [], []
    doubled = draw(st.integers(0, r if dim == 1 else 0))
    for part in range(1, r + 1):
        for _ in range(1 + (part <= doubled)):
            vs = [draw(st.tuples(*[coord] * dim)) for _ in range(dim)]
            nudge = draw(st.tuples(*[st.integers(-1, 1)] * dim))
            vs.append(tuple(e - sum(c) for e, c in zip(nudge, zip(*vs))))
            points += vs
            labels += [part] * len(vs)
    for _ in range(draw(st.integers(0, 2))):
        points.append(draw(st.tuples(*[coord] * dim)))
        labels.append(draw(st.integers(1, r)))
    order = draw(st.permutations(range(len(points))))
    cfg = PointConfig(dim, tuple(tuple(F(x) for x in points[i]) for i in order))
    return cfg, Partition(r, tuple(labels[i] for i in order))


@settings(max_examples=50, deadline=None)
@given(_centred_partitions())
def test_lifted_tolerance_equals_its_helly_reduction(case):
    # Helly (1923): after a removal, r part hulls in R^d share no point
    # exactly when some d + 1 of them share none.  So the full lift, of rank
    # (d + 1)(r - 1) = 4, 6 or 9 here, must give the (d + 1)-of-r Reay
    # tolerance, which lifts parts of rank 2, 2 or 6.
    cfg, p = case
    full = tolerance_by_lifted_depth(cfg, p).tolerance
    assert full == reay_tolerance(cfg, p, min(p.r, cfg.dim + 1)).tolerance


def _check_pair_bound(cfg, p):
    # Removing a pair's witness breaks that pair, so it breaks all three
    # hulls: the r = 3 tolerance is at most the least pairwise tolerance, and
    # each pair's witness is a removal that breaks the whole partition.
    pairs = reay_tolerance(cfg, p, 2)
    full = tolerance_by_lifted_depth(cfg, p).tolerance
    assert full <= pairs.tolerance
    for _, report in pairs.tuples:
        assert hulls_intersect(cfg, _survivors(p, set(report.witness_removal))) is None
    return full, pairs.tolerance


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_r3_tolerance_is_at_most_the_pair_minimum(data):
    dim = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(3, 15))
    coord = st.integers(-9, 9).map(F)
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    labels = data.draw(st.permutations([i % 3 + 1 for i in range(n)]))
    _check_pair_bound(PointConfig(dim, tuple(points)), Partition(3, tuple(labels)))


def test_r3_pair_bound_on_seeded_discs():
    bounds = [
        _check_pair_bound(uniform_ball(n, 2, 1000, 0), random_partition(n, 3, 0))
        for n in (18, 24, 30)
    ]
    assert bounds[0] == (-1, 0)  # the bound can be strict


def test_report_json_shapes():
    cfg = line_points(6)
    p = Partition(r=2, labels=(1, 2, 1, 2, 1, 2))
    lifted = tolerance_by_lifted_depth(cfg, p).to_json()
    assert {"tolerance", "method", "unit", "witness_removal", "common_point"} <= set(
        lifted
    )
    assert "depth" in lifted and "witness_halfspace" in lifted
    reay = reay_tolerance(cfg, p, 2).to_json()
    assert reay["k"] == 2
    assert reay["tuples"][0]["parts"] == [1, 2]


def _sub_partition(cfg, p, chosen):
    """The chosen parts' points in index order, parts relabelled 1..k."""
    members = [i for i, label in enumerate(p.labels) if label in chosen]
    sub_cfg = PointConfig(dim=cfg.dim, points=tuple(cfg.points[i] for i in members))
    sub_p = Partition(
        r=len(chosen), labels=tuple(chosen.index(p.labels[i]) + 1 for i in members)
    )
    return members, sub_cfg, sub_p


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reay_tuples_equal_plain_tolerance_of_sub_partitions(data):
    dim = data.draw(st.integers(1, 2))
    r = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(1, 8))
    coord = st.integers(-4, 4).map(F)
    points = data.draw(
        st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n)
    )
    # Balanced labelings reach positive tolerance; free ones leave parts empty.
    labels = data.draw(
        st.permutations([i % r + 1 for i in range(n)])
        | st.lists(st.integers(1, r), min_size=n, max_size=n)
    )
    k = data.draw(st.integers(2, r))
    cfg = PointConfig(dim=dim, points=tuple(points))
    p = Partition(r=r, labels=tuple(labels))
    for method, plain in (
        (LIFTED, tolerance_by_lifted_depth),
        (EXHAUSTIVE, tolerance_exhaustive),
    ):
        for chosen, report in reay_tolerance(cfg, p, k, method=method).tuples:
            members, sub_cfg, sub_p = _sub_partition(cfg, p, chosen)
            if not members and method == LIFTED:
                assert report.tolerance == -1
                assert report.witness_removal == ()
                assert report.certificate is None
                continue
            expected = plain(sub_cfg, sub_p)
            expected = replace(
                expected,
                witness_removal=tuple(members[j] for j in expected.witness_removal),
            )
            assert report.to_json() == expected.to_json()


def test_reay_exhaustive_budget_is_shared_across_tuples():
    cfg = line_points(9)
    p = Partition(r=3, labels=(1, 2, 3) * 3)
    tuples = reay_tolerance(cfg, p, 2, method=EXHAUSTIVE).tuples
    # LP calls each tuple's scan makes: every removal up to the breaking size.
    needs = [
        sum(comb(6, s) for s in range(report.tolerance + 2))
        for _, report in tuples
    ]
    budget = max(needs)
    for chosen, _ in tuples:
        _, sub_cfg, sub_p = _sub_partition(cfg, p, chosen)
        tolerance_exhaustive(sub_cfg, sub_p, budget=budget)
    with pytest.raises(BudgetExceeded):
        reay_tolerance(cfg, p, 2, method=EXHAUSTIVE, budget=budget)
    reay_tolerance(cfg, p, 2, method=EXHAUSTIVE, budget=sum(needs))


def _naive_scan(cfg, parts, classes, t_cap, budget, spent, scan):
    """The exhaustive route with one hull query per removal set, no
    pruning: the reference the pruned scan must match byte for byte."""
    units = {i: [i] for i in range(len(cfg.points))} if classes is None else classes
    owner = {i: u for u, members in units.items() for i in members}
    cap = min(len({owner[i] for i in part}) for part in parts) - 1
    if t_cap is not None:
        cap = min(cap, t_cap)
    common, tolerance, witness = None, cap, None
    for s in range(cap + 2):
        level = comb(len(units), s)
        if spent + level > budget:
            raise BudgetExceeded(
                spent + level, budget, f"{scan} at size {s} has {level} more removal sets"
            )
        spent += level
        for removal in combinations(sorted(units), s):
            gone = {i for u in removal for i in units[u]}
            result = hulls_intersect(cfg, [[i for i in g if i not in gone] for g in parts])
            if result is None:
                tolerance, witness = s - 1, removal
                break
            if s == 0:
                common = result[0]
        else:
            continue
        break
    unit = "points" if classes is None else "classes"
    return ToleranceReport(tolerance, EXHAUSTIVE, unit, witness, common, None), spent


def _naive_exhaustive(cfg, p, form, k, t_cap, budget):
    if form == "plain":
        return _naive_scan(cfg, p.parts(), None, t_cap, budget, 0, "removal scan")[0]
    if form == "colored":
        return _naive_scan(
            cfg, p.parts(), cfg.color_classes(), t_cap, budget, 0, "class-removal scan"
        )[0]
    spent, tuples = 0, []
    for chosen in combinations(range(1, p.r + 1), k):
        members, sub_cfg, sub_p = _sub_partition(cfg, p, chosen)
        report, spent = _naive_scan(
            sub_cfg, sub_p.parts(), None, None, budget, spent,
            f"removal scan for parts {chosen}",
        )
        removal = tuple(members[j] for j in report.witness_removal)
        tuples.append((chosen, replace(report, witness_removal=removal)))
    return ReayReport(min(rep.tolerance for _, rep in tuples), k, tuple(tuples))


def _outcome(compute):
    try:
        return compute().to_json()
    except BudgetExceeded as exc:
        return (type(exc), str(exc))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_scans_match_the_naive_scan(data):
    form = data.draw(st.sampled_from(["plain", "colored", "reay"]))
    dim = data.draw(st.integers(1, 2))
    r = data.draw(st.integers(2, 3))
    coord = st.integers(-5, 5).map(F)
    if form == "colored":
        # Rainbow: every class holds one point of each part.
        classes = data.draw(st.integers(1, 9 // r))
        n = classes * r
        colors = tuple(i // r + 1 for i in range(n))
        labels = [
            label
            for _ in range(classes)
            for label in data.draw(st.permutations(range(1, r + 1)))
        ]
    else:
        n = data.draw(st.integers(1, 9))
        colors = None
        labels = data.draw(
            st.permutations([i % r + 1 for i in range(n)])
            | st.lists(st.integers(1, r), min_size=n, max_size=n)
        )
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    cfg = PointConfig(dim=dim, points=tuple(points), colors=colors)
    p = Partition(r=r, labels=tuple(labels))
    k = data.draw(st.integers(2, r))
    t_cap = None if form == "reay" else data.draw(st.none() | st.integers(0, 3))
    budget = data.draw(st.none() | st.integers(1, 200))
    if form == "plain":
        pruned = lambda: tolerance_exhaustive(cfg, p, t_cap=t_cap, budget=budget)
    elif form == "colored":
        pruned = lambda: colored_tolerance(
            cfg, p, method=EXHAUSTIVE, t_cap=t_cap, budget=budget
        )
    else:
        pruned = lambda: reay_tolerance(cfg, p, k, method=EXHAUSTIVE, budget=budget)
    naive = lambda: _naive_exhaustive(
        cfg, p, form, k, t_cap, 10**6 if budget is None else budget
    )
    assert _outcome(pruned) == _outcome(naive)


def test_readme_exhaustive_example_lp_count(monkeypatch):
    # The README's 16-point walkthrough: the unpruned scan made 1,566
    # hull queries here; witness supports cover all but 26 removal sets.
    cfg = uniform_ball(16, 2, 1000, 7)
    p, _ = certified_partition(cfg, 2, 3, 0)
    calls = []

    def counting(*args):
        calls.append(args)
        return hulls_intersect(*args)

    monkeypatch.setattr(verify, "hulls_intersect", counting)
    report = tolerance_exhaustive(cfg, p)
    assert report.tolerance == 3
    assert len(calls) == 26


def test_methods_agree_on_seeded_disc_instances():
    # Certified partitions of 12..20 points in a disc, tolerance 1..4.
    for seed in range(12):
        r = 2 + seed % 2
        n = (12, 14, 16, 18, 20, 13)[seed // 2] if r == 2 else 15 + seed // 2
        cfg = uniform_ball(n, 2, 1000, seed)
        found = certified_partition(cfg, r, (n - 1) // 3 - 2 if r == 2 else 1, seed, 16)
        assert found is not None
        p, lifted = found
        exhaustive = tolerance_exhaustive(cfg, p)
        assert exhaustive.tolerance == lifted.tolerance
        assert hulls_intersect(cfg, _survivors(p, set(exhaustive.witness_removal))) is None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lifted_removal_is_the_witness_side_of_the_lift(data):
    # The report takes its removal from the certificate's ``inside``; the
    # oracle substitutes every lifted point into the witness half-space.
    dim = data.draw(st.integers(1, 2))
    r = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(r, 7))
    coord = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    labels = data.draw(st.permutations([i % r + 1 for i in range(n)]))
    colors = data.draw(
        st.none() | st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple)
    )
    cfg = PointConfig(dim=dim, points=tuple(points), colors=colors)
    p = Partition(r=r, labels=tuple(labels))
    classes = None if colors is None else cfg.color_classes()
    report = verify._lifted_report(cfg, p, classes)
    unit_of = range(n) if colors is None else colors
    witness = report.certificate.witness
    lifted = lift_partition(cfg, p)
    closed = [j for j, q in enumerate(lifted.points) if dot(witness.normal, q) >= witness.offset]
    assert report.witness_removal == tuple(sorted({unit_of[j] for j in closed}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_at_least_returns_none_exactly_below_the_target(data):
    # Each certifying function, given at_least, returns None exactly when
    # the full report's tolerance is below it, and that report otherwise.
    form = data.draw(st.sampled_from(["plain", "colored", "reay"]))
    method = data.draw(st.sampled_from([LIFTED, EXHAUSTIVE]))
    dim = data.draw(st.integers(1, 2))
    r = data.draw(st.integers(2, 3))
    coord = st.integers(-5, 5).map(F)
    if form == "colored":
        classes = data.draw(st.integers(1, 8 // r))
        n = classes * r
        colors = tuple(i // r + 1 for i in range(n))
        labels = [
            label
            for _ in range(classes)
            for label in data.draw(st.permutations(range(1, r + 1)))
        ]
    else:
        n = data.draw(st.integers(1, 8))
        colors = None
        labels = data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    cfg = PointConfig(dim=dim, points=tuple(points), colors=colors)
    p = Partition(r=r, labels=tuple(labels))
    k = data.draw(st.integers(2, r))
    at_least = data.draw(st.integers(-1, 4))
    if form == "plain":  # the lifted route only: tolerance_exhaustive has no at_least
        compute = lambda **kw: tolerance_by_lifted_depth(cfg, p, **kw)
    elif form == "colored":
        compute = lambda **kw: colored_tolerance(cfg, p, method=method, **kw)
    else:
        compute = lambda **kw: reay_tolerance(cfg, p, k, method=method, **kw)
    full = compute()
    cut = compute(at_least=at_least)
    assert cut == (None if full.tolerance < at_least else full)


def test_check_budget_refuses_below_one():
    assert verify.check_budget(None) == verify.DEFAULT_BUDGET
    assert verify.check_budget(1) == 1
    for bad in (0, -3):
        with pytest.raises(ValueError, match="budget must be positive"):
            verify.check_budget(bad)


@pytest.mark.parametrize("budget", [0, -3])
def test_scans_refuse_a_budget_below_one_as_invalid(budget):
    # A budget below one is invalid input, not a scan that ran out.
    cfg = line_points(6)
    p = Partition(2, (1, 2) * 3)
    calls = [
        lambda: tolerance_exhaustive(cfg, p, budget=budget),
        lambda: colored_tolerance(
            PointConfig(1, cfg.points, (1, 1, 2, 2, 3, 3)), p,
            method=EXHAUSTIVE, budget=budget,
        ),
        lambda: reay_tolerance(cfg, p, 2, method=EXHAUSTIVE, budget=budget),
        lambda: depth_oracle(cfg, (F(0),), budget=budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="budget must be positive"):
            call()


def _theorem_configs(n, d, seed, count=12):
    """count small integer configurations in R^d, taking turns: spread over
    [-9, 9]^d, crowded onto {-1, 0, 1}^d so that points repeat, and on one
    line through an integer point."""
    for i in range(count):
        s = seed + i
        if i % 3 < 2:
            yield random_int_config(n, d, s, spread=9 if i % 3 == 0 else 1)
        else:
            base, step = random_int_config(2, d, s).points
            step = step if any(step) else (F(1),) * d
            rng = SplitMix64(s)
            offsets = [rng.next_below(7) - 3 for _ in range(n)]
            line = [tuple(b + k * u for b, u in zip(base, step)) for k in offsets]
            yield PointConfig(d, tuple(line))


def _first_certified_labeling(cfg, r, t):
    """The first labeling, up to relabelling the parts, that the lifted route
    certifies at tolerance >= t, cross-checked by the exhaustive scan."""
    for labels in labelings_up_to_relabelling(len(cfg.points), r):
        p = Partition(r, labels)
        report = tolerance_by_lifted_depth(cfg, p, at_least=t)
        if report is not None:
            assert tolerance_exhaustive(cfg, p).tolerance == report.tolerance >= t
            return p
    return None


@pytest.mark.parametrize(
    "r, d, t",
    [(2, 1, 0), (2, 2, 0), (3, 1, 0), (3, 2, 0)]
    + [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 3, 1)],
)
def test_theorem_sized_sets_have_a_tolerant_partition(r, d, t):
    # Tverberg (1966) at t = 0, and Soberon & Strausz (DCG 47, 2012) beyond:
    # any (r - 1)(t + 1)(d + 1) + 1 points in R^d have an r-partition of
    # tolerance >= t; at r = 2, t = 1 that is Larman's 2d + 3.  The theorems'
    # conditions are closed, so repeated and collinear points qualify too.
    n = (r - 1) * (t + 1) * (d + 1) + 1
    for cfg in _theorem_configs(n, d, seed=100 * r + 10 * d + t):
        assert _first_certified_labeling(cfg, r, t) is not None
