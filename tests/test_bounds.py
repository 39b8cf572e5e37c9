"""Closed-form tolerance bounds: frozen values and shape properties."""

import math
import time
from fractions import Fraction

import pytest

from tverberg.bounds import (
    carath_depth_bound,
    carath_guaranteed_depth,
    carath_slack,
    colored_slack,
    colored_tolerance_from_n,
    eps_slack,
    fixed_point_probability,
    n_for_probability,
    n_for_tolerance,
    plain_slack,
    reay_slack,
    reay_tolerance_from_m,
    sign_tolerance_from_n,
    tolerance_from_n,
)


def test_plain_tolerance_frozen_values():
    assert tolerance_from_n(100, 1, 2) == 26
    # Tiny n: the slack dominates and the bound goes (far) negative.
    assert tolerance_from_n(4, 10, 2) == -5


def test_plain_tolerance_grows_for_large_n():
    prev = tolerance_from_n(10_000, 1, 2)
    for n in range(11_000, 30_001, 1000):
        cur = tolerance_from_n(n, 1, 2)
        assert cur > prev
        prev = cur


def test_plain_tolerance_decreases_in_dimension_and_parts():
    base = tolerance_from_n(500, 1, 2)
    assert tolerance_from_n(500, 3, 2) < base
    assert tolerance_from_n(500, 1, 4) < base


def test_n_for_tolerance_frozen_values():
    assert n_for_tolerance(26, 1, 2) == 98
    assert n_for_tolerance(25, 1, 2) == 95


def test_n_for_tolerance_inverts_tolerance_from_n():
    for n in (50, 100, 400, 1000):
        t = tolerance_from_n(n, 1, 2)
        if t >= 0:
            assert n_for_tolerance(t, 1, 2) <= n
            assert tolerance_from_n(n_for_tolerance(t, 1, 2), 1, 2) >= t


def test_n_for_probability_frozen_values():
    assert n_for_probability(25, 1, 2, 0.5) == 100
    assert n_for_probability(10, 2, 2, 0.5) == 68


def test_n_for_probability_monotone_in_confidence():
    # Harder confidence targets (smaller failure budget) need more points.
    sizes = [n_for_probability(10, 2, 2, eps) for eps in (0.5, 0.1, 0.01)]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]


def test_n_for_probability_guarantee_exceeds_requested_tolerance():
    for eps in (0.5, 0.25):
        n = n_for_probability(8, 2, 3, eps)
        lam = math.sqrt(
            0.5 * (3 * 2 * n * math.log(n * 3) + n * math.log(1 / eps))
        )
        assert 8 + 1 <= n / 3 - lam


def _scan_for_tolerance(t, d, r):
    n = max(r * t, 1)
    while tolerance_from_n(n, d, r) < t:
        n += 1
    return n


def _scan_for_probability(t, d, r, eps):
    n = max(r * (t + 1), 1)
    while n / r - eps_slack(n, d, r, eps) < t + 1:
        n += 1
    return n


_GRID = [
    (t, d, r)
    for d in (1, 2, 3, 6)
    for r in (2, 3, 5)
    for t in [*range(0, 30), 64, 100, 333]
]


def test_n_for_tolerance_matches_forward_scan():
    for t, d, r in _GRID:
        assert n_for_tolerance(t, d, r) == _scan_for_tolerance(t, d, r), (t, d, r)


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-6])
def test_n_for_probability_matches_forward_scan(eps):
    for t, d, r in _GRID:
        expected = _scan_for_probability(t, d, r, eps)
        assert n_for_probability(t, d, r, eps) == expected, (t, d, r, eps)


def test_fixed_point_probability_values():
    assert fixed_point_probability(1) == Fraction(1)
    assert fixed_point_probability(2) == Fraction(1, 2)
    assert fixed_point_probability(3) == Fraction(2, 3)
    assert fixed_point_probability(4) == Fraction(5, 8)
    limit = 1 - 1 / math.e
    assert abs(float(fixed_point_probability(10)) - limit) < 1e-6


def test_colored_tolerance_frozen_value():
    assert colored_tolerance_from_n(200, 1, 3) == 77


def test_fixed_point_probability_float_settles_at_eighteen():
    # colored_tolerance_from_n reads p(r) for r >= 18 as p(18).
    settled = float(fixed_point_probability(18))
    assert float(fixed_point_probability(17)) != settled
    for r in range(18, 401):
        assert float(fixed_point_probability(r)) == settled
    for n, d, r in [(10, 2, 18), (200, 1, 19), (500, 3, 400)]:
        expected = math.floor(
            float(fixed_point_probability(r)) * n - colored_slack(n, d, r) - 1.0
        )
        assert colored_tolerance_from_n(n, d, r) == expected


def test_colored_tolerance_below_plain():
    # Random grouping wastes some points, so the colored bound is weaker.
    for n in (200, 500, 1000):
        assert colored_tolerance_from_n(n, 1, 2) <= tolerance_from_n(n, 1, 2)


def test_reay_tolerance_frozen_value():
    assert reay_tolerance_from_m(100, 1, 3, 2) == 8


def test_reay_with_all_parts_matches_plain():
    for m, d, r in [(100, 1, 2), (100, 1, 3), (240, 2, 3), (500, 3, 4)]:
        assert reay_tolerance_from_m(m, d, r, r) == tolerance_from_n(m, d, r)


def test_reay_tolerance_shrinks_with_more_simultaneous_parts():
    values = [reay_tolerance_from_m(300, 1, 4, k) for k in (2, 3, 4)]
    assert values == sorted(values, reverse=True)


def _exact_reay_slack(m, d, r, k):
    inner = (d + 1) * (k - 1) * math.log(m * r) + math.log(math.comb(r, k))
    return math.sqrt(m * inner / 2.0)


def test_reay_slack_is_exact_up_to_ten_thousand_parts():
    for r in (2, 3, 7, 100, 1000, 9999, 10_000):
        for k in sorted({2, 3, r // 2, r - 1, r} & set(range(2, r + 1))):
            for m, d in [(100, 1), (240, 2), (10**6, 3)]:
                assert reay_slack(m, d, r, k) == _exact_reay_slack(m, d, r, k)


def test_reay_slack_for_many_parts_is_fast_and_close():
    assert reay_slack(100, 2, 20_001, 10_000) == pytest.approx(
        _exact_reay_slack(100, 2, 20_001, 10_000), rel=1e-12
    )
    start = time.perf_counter()
    slack = reay_slack(100, 2, 4_000_000, 2_000_000)
    assert time.perf_counter() - start < 1.0
    assert 77_978 < slack < 77_980


def test_carath_depth_frozen_value():
    bound = carath_depth_bound(100, 2, 2)
    assert 26.9 < bound < 27.1
    assert carath_guaranteed_depth(100, 2, 2) == 27


def test_carath_single_part_keeps_all_points():
    # r=1 is degenerate: every point joins the single hull.
    assert carath_depth_bound(50, 2, 1) == 50 - carath_slack(50, 2, 1)


def test_carath_guaranteed_depth_never_negative():
    assert carath_guaranteed_depth(4, 3, 2) == 0


def test_sign_tolerance_tracks_two_part_carath():
    n, d = 100, 2
    assert sign_tolerance_from_n(n, d) == math.ceil(carath_depth_bound(n, d, 2)) - 1
    assert sign_tolerance_from_n(10, 5) <= 0 or sign_tolerance_from_n(10, 5) >= 0


def test_plain_slack_positive_and_growing():
    assert plain_slack(100, 1, 2) > 0
    assert plain_slack(400, 1, 2) > plain_slack(100, 1, 2)


@pytest.mark.parametrize(
    "fn, args",
    [
        (tolerance_from_n, (0, 1, 2)),
        (tolerance_from_n, (10, 0, 2)),
        (tolerance_from_n, (10, 1, 1)),
        (n_for_tolerance, (-1, 1, 2)),
        (n_for_probability, (5, 1, 2, 0.0)),
        (n_for_probability, (5, 1, 2, 1.5)),
        (reay_tolerance_from_m, (100, 1, 3, 4)),
        (reay_tolerance_from_m, (100, 1, 3, 1)),
        (carath_depth_bound, (10, 1, 0)),
        (fixed_point_probability, (0,)),
        (n_for_probability, (10, 2, 2, 1e-320)),  # 1/eps is not finite
    ],
)
def test_invalid_parameters_rejected(fn, args):
    with pytest.raises(ValueError):
        fn(*args)
