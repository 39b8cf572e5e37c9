"""Randomized search engines: determinism, refusals, certified outputs."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from tverberg import engine
from tverberg.bounds import sign_tolerance_from_n
from tverberg.depth import depth
from tverberg.engine import (
    certified_colored_partition,
    certified_partition,
    certified_reay_partition,
    random_block_choice,
    random_partition,
    sign_assignment,
    unreachable,
)
from tverberg.gen import colored_classes, line_points, uniform_ball
from tverberg.geometry import PointConfig
from tverberg.partition import Partition
from tverberg.rng import SplitMix64, substream_seed
from tverberg.verify import (
    colored_tolerance,
    reay_tolerance,
    tolerance_by_lifted_depth,
    tolerance_exhaustive,
)

from conftest import labelings_up_to_relabelling

F = Fraction


def test_random_partition_deterministic_and_in_range():
    p = random_partition(40, 3, seed=5)
    q = random_partition(40, 3, seed=5)
    assert p == q
    assert p.r == 3
    assert all(1 <= l <= 3 for l in p.labels)
    assert random_partition(40, 3, seed=6) != p


def test_random_partition_label_frequencies():
    n, r = 30_000, 3
    counts = Counter(random_partition(n, r, seed=123).labels)
    expected = n / r
    sigma = math.sqrt(n * (1 / r) * (1 - 1 / r))
    for label in range(1, r + 1):
        assert abs(counts[label] - expected) < 3 * sigma


def test_random_block_choice_single_part_is_identity():
    assert random_block_choice(1, seed=9) == (1,)


def test_random_block_choice_deterministic():
    assert random_block_choice(5, seed=3) == random_block_choice(5, seed=3)
    assert sorted(random_block_choice(5, seed=3)) == [1, 2, 3, 4, 5]


def test_random_block_choice_fixed_point_rate():
    # P(at least one member stays at its own position) for r=3 is 2/3.
    trials = 100_000
    hits = 0
    for s in range(trials):
        images = random_block_choice(3, seed=s)
        if any(images[pos] == pos + 1 for pos in range(3)):
            hits += 1
    p = 2 / 3
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) < 3 * sigma


def test_certified_partition_deterministic():
    cfg = line_points(12)
    a = certified_partition(cfg, 2, 3, seed=0, max_trials=50)
    b = certified_partition(cfg, 2, 3, seed=0, max_trials=50)
    assert a is not None and b is not None
    assert a[0] == b[0]
    assert a[1].tolerance == b[1].tolerance >= 3


def test_certified_partition_matches_exhaustive_oracle():
    cfg = line_points(10)
    found = certified_partition(cfg, 2, 2, seed=1, max_trials=80)
    assert found is not None
    p, report = found
    assert report.tolerance >= 2
    assert tolerance_exhaustive(cfg, p).tolerance == report.tolerance


def test_certified_partition_pigeonhole_refusal(monkeypatch):
    # n < r * (t + 1) leaves some part with at most t points to wipe out, so
    # the search returns None without certifying a trial.
    def certify(*args, **kwargs):
        raise AssertionError("a search refused by pigeonhole certified a trial")

    monkeypatch.setattr(engine, "tolerance_by_lifted_depth", certify)
    cfg = line_points(6)
    assert certified_partition(cfg, 2, 3, seed=0) is None
    assert certified_partition(cfg, 3, 2, seed=0) is None
    # 13 points in 2 parts: one part has at most 6.
    assert certified_partition(line_points(13), 2, 6, seed=0) is None


def test_rainbow_pigeonhole_is_the_class_count():
    # A rainbow partition has n = r * classes, so the one pigeonhole rule
    # refuses exactly the class-removal targets t > classes - 1.
    for classes in range(1, 6):
        for r in range(2, 5):
            cfg = colored_classes(classes, r, dim=1, radius=5, seed=0)
            for t in range(8):
                refused = unreachable(cfg, t, cfg.class_size()) is not None
                assert refused == (t > classes - 1), (classes, r, t)


@pytest.mark.parametrize("r", [2, 3])
def test_pigeonhole_ceiling_holds_for_every_labeling(r):
    # Soundness of the refusal: no labeling of n <= 8 points reaches
    # floor(n / r), the first target unreachable refuses.  On coincident
    # points a balanced labeling reaches floor(n / r) - 1, so the rule
    # refuses no reachable target.
    for n in range(r, 9):
        ceiling = n // r
        spread = uniform_ball(n, 2, 1000, n)
        coincident = PointConfig(dim=2, points=((F(0), F(0)),) * n)
        for cfg in (spread, coincident):
            assert unreachable(cfg, ceiling, r) is not None
            assert unreachable(cfg, ceiling - 1, r) is None
            best = max(
                tolerance_exhaustive(cfg, Partition(r, labels), t_cap=ceiling).tolerance
                for labels in labelings_up_to_relabelling(n, r)
            )
            assert best <= ceiling - 1, (n, cfg)
        assert best == ceiling - 1


def test_certified_partition_zero_target_easy():
    cfg = line_points(4)
    found = certified_partition(cfg, 2, 0, seed=0, max_trials=30)
    assert found is not None
    assert found[1].tolerance >= 0


def test_certified_colored_partition_deterministic_and_certified():
    cfg = colored_classes(6, 2, dim=2, radius=10, seed=4)
    found = certified_colored_partition(cfg, 1, seed=2, max_trials=60)
    again = certified_colored_partition(cfg, 1, seed=2, max_trials=60)
    assert found is not None and again is not None
    assert found[0] == again[0]
    assert found[1].tolerance >= 1
    assert found[1].unit == "classes"
    # Rainbow structure: each class spreads over both parts.
    classes = cfg.color_classes()
    for members in classes.values():
        assert sorted(found[0].labels[i] for i in members) == [1, 2]


def test_certified_colored_partition_class_budget_refusal():
    cfg = colored_classes(4, 2, dim=1, radius=5, seed=0)
    # Only 4 classes: removing 4 exceeds what class-tolerance can certify.
    assert certified_colored_partition(cfg, 4, seed=0) is None


def test_certified_colored_partition_requires_uniform_classes():
    pts = ((F(0),), (F(1),), (F(2),))
    cfg = PointConfig(dim=1, points=pts, colors=(1, 1, 2))
    with pytest.raises(ValueError):
        certified_colored_partition(cfg, 0, seed=0)


def test_certified_reay_with_k_equal_r_matches_plain():
    cfg = line_points(10)
    plain = certified_partition(cfg, 2, 2, seed=3, max_trials=60)
    reay = certified_reay_partition(cfg, 2, 2, 2, seed=3, max_trials=60)
    assert plain is not None and reay is not None
    assert plain[0] == reay[0]
    assert plain[1].tolerance == reay[1].tolerance


def test_certified_reay_k_validation():
    cfg = line_points(8)
    with pytest.raises(ValueError):
        certified_reay_partition(cfg, 3, 1, 0, seed=0)
    with pytest.raises(ValueError):
        certified_reay_partition(cfg, 3, 4, 0, seed=0)


def test_sign_assignment_small_example():
    # Points 1, -1, 1 on the line: flipping the middle sign puts all mass
    # on one side; the best draws balance signs around the origin.
    cfg = PointConfig(dim=1, points=((F(1),), (F(-1),), (F(1),)))
    signs, tolerance = sign_assignment(cfg, seed=0, max_trials=40)
    assert tolerance == 0
    signed = [s * x for s, (x,) in zip(signs, cfg.points)]
    assert min(signed) < 0 < max(signed)


def test_sign_assignment_balanced_line_reaches_half():
    # All points identical: tolerance is floor(n/2) - 1 when the signs
    # split as evenly as possible, and random flips find that quickly.
    cfg = PointConfig(dim=1, points=tuple((F(1),) for _ in range(9)))
    _, tolerance = sign_assignment(cfg, seed=1, max_trials=200)
    assert tolerance == 3


def test_sign_assignment_pinned_on_the_100_point_disc():
    # The sign-flip experiment at library level: 64 trials on 100 points in
    # the disc beat the closed-form guarantee sign_tolerance_from_n(100, 2) = 26.
    signs, score = sign_assignment(uniform_ball(100, 2, 1000, 7), seed=0)
    assert score == 44 >= sign_tolerance_from_n(100, 2) == 26
    assert len(signs) == 100 and set(signs) <= {-1, 1}


def test_sign_assignment_deterministic():
    cfg = uniform_ball(8, 2, radius=5, seed=6)
    assert sign_assignment(cfg, seed=9) == sign_assignment(cfg, seed=9)


def _full_sign_assignment(cfg, seed, max_trials, beaten):
    """sign_assignment before the decision cutoff: every trial runs the full
    depth search.  ``beaten`` collects the trials that did not improve."""
    best = None
    for i in range(max_trials):
        rng = SplitMix64(substream_seed(seed, i))
        signs = tuple(rng.next_sign() for _ in range(len(cfg.points)))
        signed = PointConfig(
            dim=cfg.dim,
            points=tuple(tuple(s * x for x in pt) for s, pt in zip(signs, cfg.points)),
        )
        tolerance = depth(signed, (0,) * cfg.dim).depth - 1
        if best is None or tolerance > best[1]:
            best = (signs, tolerance)
        else:
            beaten.append(i)
    return best


def test_sign_assignment_matches_the_full_search_reference():
    # A trial that stops below best + 2 could not have improved the score,
    # so the cutoff returns the same first best assignment and score.
    beaten = []
    for seed in range(4):
        for n, dim in ((7, 1), (12, 2), (40, 2), (10, 3)):
            cfg = uniform_ball(n, dim, 1000, seed)
            want = _full_sign_assignment(cfg, seed, 10, beaten)
            assert sign_assignment(cfg, seed, max_trials=10) == want
    assert len(beaten) > 80


def _reference_search(draw, certify, t_target, seed, max_trials, refuted):
    """The search before the decision cutoff: every trial builds its full
    report, and the first that reaches t_target wins.  ``refuted`` collects
    the trials that fell short."""
    for i in range(max_trials):
        p = draw(substream_seed(seed, i))
        report = certify(p)
        if report.tolerance >= t_target:
            return p, report
        refuted.append(p)
    return None


def _colored_draw(cfg, r):
    """The rainbow draw of certified_colored_partition: each class, in
    color order, onto the parts by one permutation of the trial's stream."""
    classes = cfg.color_classes()

    def draw(trial_seed):
        rng = SplitMix64(trial_seed)
        labels = [0] * len(cfg.points)
        for color in sorted(classes):
            perm = rng.permutation(r)
            for pos, idx in enumerate(classes[color]):
                labels[idx] = perm[pos]
        return Partition(r, tuple(labels))

    return draw


def test_cutoff_search_matches_the_full_report_reference():
    # The cutoff only discards reports of trials that miss the target, so
    # every search returns the same partition and report, certificate
    # included, as the loop that builds every report in full.
    refuted, outcomes = [], []
    for seed in range(3):
        ball = uniform_ball(24, 2, 1000, seed)
        for t in range(3, 8):
            draw = lambda s: random_partition(24, 2, s)
            want = _reference_search(
                draw, lambda p: tolerance_by_lifted_depth(ball, p), t, seed, 6, refuted
            )
            assert certified_partition(ball, 2, t, seed, max_trials=6) == want
            outcomes.append(want is None)
        rainbow = colored_classes(8, 2, dim=2, radius=1000, seed=seed)
        for t in range(1, 5):
            want = _reference_search(
                _colored_draw(rainbow, 2), lambda p: colored_tolerance(rainbow, p),
                t, seed, 6, refuted,
            )
            assert certified_colored_partition(rainbow, t, seed, max_trials=6) == want
            outcomes.append(want is None)
        small = uniform_ball(15, 2, 100, seed)
        for t in range(1, 4):
            draw = lambda s: random_partition(15, 3, s)
            want = _reference_search(
                draw, lambda p: reay_tolerance(small, p, 2), t, seed, 6, refuted
            )
            assert certified_reay_partition(small, 3, 2, t, seed, max_trials=6) == want
            outcomes.append(want is None)
    # Both outcomes occur, and many trials were refuted along the way.
    assert set(outcomes) == {True, False}
    assert len(refuted) > 20
