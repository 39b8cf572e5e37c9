"""Closed-form tolerance guarantees for random partitions.

Every guarantee here evaluates a deterministic formula in double
precision (the inputs are small integers, so the only rounding is in
sqrt/log); nothing samples randomness.  A guarantee of -1 means the
formula certifies nothing at the given size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable


def _check_ndr(n: int, d: int, r: int) -> None:
    if n < 1:
        raise ValueError("need at least one point")
    if d < 1:
        raise ValueError("dimension must be positive")
    if r < 2:
        raise ValueError("need at least two parts")


def plain_slack(n: int, d: int, r: int) -> float:
    """sqrt((d+1)(r-1) n ln(n r) / 2), the deviation term for plain tolerance."""
    _check_ndr(n, d, r)
    return math.sqrt((d + 1) * (r - 1) * n * math.log(n * r) / 2.0)


def tolerance_from_n(n: int, d: int, r: int) -> int:
    """Largest t such that a uniform partition of any n points in R^d into
    r parts has tolerance >= t with positive probability: ceil(n/r - slack) - 1.
    """
    slack = plain_slack(n, d, r)  # checks r before n / r divides by it
    return math.ceil(n / r - slack) - 1


def _least_n(start: int, holds: Callable[[int], bool]) -> int:
    """Least n >= start with holds(n), by galloping from start, then
    bisecting.  Both callers compare n/r - slack(n) with a constant; that
    is convex in n (slack = sqrt(n (A ln(n r) + B)) is concave), so when
    start fails, the failing n form one run from start: a forward scan's n."""
    low, step = start - 1, 1  # no n <= low is sought
    while not holds(low + step):
        low, step = low + step, 2 * step
    high = low + step  # holds(high), and the answer lies in low + 1 .. high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if holds(mid) else (mid, high)
    return high


def n_for_tolerance(t: int, d: int, r: int) -> int:
    """Smallest n >= max(rt, 1) whose guarantee reaches tolerance t."""
    if t < 0:
        raise ValueError("tolerance must be nonnegative")
    return _least_n(max(r * t, 1), lambda n: tolerance_from_n(n, d, r) >= t)


def eps_slack(n: int, d: int, r: int, eps: float) -> float:
    """Deviation term once a failure probability eps is allowed."""
    _check_ndr(n, d, r)
    if not 0.0 < eps < 1.0:
        raise ValueError("failure probability must lie in (0, 1)")
    if not math.isfinite(1.0 / eps):
        raise ValueError(f"failure probability {eps} is too small: 1/eps overflows")
    inner = (d + 1) * (r - 1) * n * math.log(n * r) + n * math.log(1.0 / eps)
    return math.sqrt(inner / 2.0)


def n_for_probability(t: int, d: int, r: int, eps: float) -> int:
    """Smallest n such that a single uniform partition has tolerance >= t
    with probability at least 1 - eps: the least n with
    t + 1 <= n/r - eps_slack(n, d, r, eps).

    No n below r(t+1) can satisfy the inequality, so the search starts there.
    """
    if t < 0:
        raise ValueError("tolerance must be nonnegative")
    _check_ndr(1, d, r)  # before the predicate divides by r
    return _least_n(
        max(r * (t + 1), 1), lambda n: n / r - eps_slack(n, d, r, eps) >= t + 1
    )


def derangements(r: int) -> int:
    """Number of permutations of r items with no fixed point.

    D_0 = 1, D_1 = 0, and D_r = (r-1)(D_(r-1) + D_(r-2)).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return 1
    prev2, prev1 = 1, 0  # D_0, D_1
    if r == 1:
        return 0
    for i in range(2, r + 1):
        prev2, prev1 = prev1, (i - 1) * (prev1 + prev2)
    return prev1


def fixed_point_probability(r: int) -> Fraction:
    """Exact probability 1 - D_r / r! that a uniform permutation of r items
    has at least one fixed point."""
    if r < 1:
        raise ValueError("need at least one item")
    return 1 - Fraction(derangements(r), math.factorial(r))


def colored_slack(n: int, d: int, r: int) -> float:
    """sqrt((d+1)(r-1) n ln(n r^2) / 2), the deviation term in the colored bound."""
    _check_ndr(n, d, r)
    return math.sqrt((d + 1) * (r - 1) * n * math.log(n * r * r) / 2.0)


def colored_tolerance_from_n(n: int, d: int, r: int) -> int:
    """Class-removal tolerance guarantee for n color classes of size r in R^d:
    floor(p(r) n - colored_slack - 1) with p(r) the fixed-point probability.
    """
    slack = colored_slack(n, d, r)  # checks r before p(r) reads it
    # p(r) alternates around 1 - 1/e with shrinking error, and p(18) and
    # p(19) round to the same double, so every r >= 18 gives that double;
    # capping r skips the exact derangement count of a large r.
    p = float(fixed_point_probability(min(r, 18)))
    return math.floor(p * n - slack - 1.0)


def reay_slack(m: int, d: int, r: int, k: int) -> float:
    """Deviation term for the k-of-r hull intersection guarantee:
    sqrt((m/2) ((d+1)(k-1) ln(m r) + ln C(r, k))).
    """
    _check_ndr(m, d, r)
    if not 2 <= k <= r:
        raise ValueError("k must lie in 2..r")
    if r <= 10_000:
        log_comb = math.log(math.comb(r, k))
    else:  # the exact C(r, k) has up to ~0.3 r digits
        log_comb = math.lgamma(r + 1) - math.lgamma(k + 1) - math.lgamma(r - k + 1)
    inner = (d + 1) * (k - 1) * math.log(m * r) + log_comb
    return math.sqrt(m * inner / 2.0)


def reay_tolerance_from_m(m: int, d: int, r: int, k: int) -> int:
    """Tolerance guarantee when only every k of the r hulls must keep a
    common point: ceil(m/r - reay_slack) - 1."""
    slack = reay_slack(m, d, r, k)  # checks r before m / r divides by it
    return math.ceil(m / r - slack) - 1


def carath_slack(n: int, d: int, r: int) -> float:
    """sqrt(d n ln(n r) / 2), the deviation term of the depth guarantee."""
    if n < 1:
        raise ValueError("need at least one point")
    if d < 1:
        raise ValueError("dimension must be positive")
    if r < 1:
        raise ValueError("need at least one part")
    return math.sqrt(d * n * math.log(n * r) / 2.0)


def carath_depth_bound(n: int, d: int, r: int) -> float:
    """Lower bound n/r - sqrt(d n ln(n r) / 2) on the depth of the common
    point a random r-partition certifies.  r = 1 is allowed (every point
    in one part): the bound degenerates to n - slack."""
    slack = carath_slack(n, d, r)
    return n / r - slack


def carath_guaranteed_depth(n: int, d: int, r: int) -> int:
    """Integer depth certified by carath_depth_bound: its ceiling when the
    bound is positive, else 0 (no guarantee)."""
    bound = carath_depth_bound(n, d, r)
    if bound <= 0.0:
        return 0
    return math.ceil(bound)


def sign_tolerance_from_n(n: int, d: int) -> int:
    """Tolerance guarantee for random sign flips of n points in R^d:
    the two-part Caratheodory bound rounded via ceil, minus one."""
    return math.ceil(carath_depth_bound(n, d, 2)) - 1
