"""Randomized search for partitions whose tolerance can be certified.

Uniform random labelings hit the target tolerance with constant
probability once the point count clears the closed-form bounds, so a
handful of seeded trials suffices.  Trial i always draws from the
substream (seed, i); reruns with the same seed reproduce the exact
same partitions and certificates.

The plain, k-of-r and rainbow searches differ only in their draw and
certify; ``_first_certified`` returns None without sampling for the
targets ``unreachable`` rules out, one pigeonhole rule for all three.  A
trial asks only whether it reaches the target (``at_least``), so a failing
trial's depth search stops at the first half-space that refutes it.
"""

from __future__ import annotations

import reprlib
from typing import Callable, Optional, Tuple, TypeVar

from .depth import depth
from .geometry import PointConfig
from .partition import Partition
from .rng import SplitMix64, substream_seed
from .verify import (
    ReayReport,
    ToleranceReport,
    colored_tolerance,
    reay_tolerance,
    tolerance_by_lifted_depth,
)

DEFAULT_TRIALS = 64

Report = TypeVar("Report", ToleranceReport, ReayReport)


def random_partition(n: int, r: int, seed: int) -> Partition:
    """Partition of n points with labels drawn uniformly from 1..r."""
    if n < 1:
        raise ValueError("need at least one point")
    if r < 1:
        raise ValueError("need at least one part")
    rng = SplitMix64(seed)
    return Partition(r, tuple(rng.next_below(r) + 1 for _ in range(n)))


def random_block_choice(r: int, seed: int) -> Tuple[int, ...]:
    """Uniform assignment of one class's r points onto the r parts, as a
    permutation of 1..r: the member at position pos goes to part perm[pos]."""
    if r < 1:
        raise ValueError("need at least one part")
    return tuple(SplitMix64(seed).permutation(r))


def unreachable(cfg: PointConfig, t_target: int, r: int) -> Optional[str]:
    """Why no partition of cfg into r parts can reach tolerance t_target, or None.

    Under every labeling some part has at most floor(n / r) points, and
    removing them empties it: refused exactly when n < r * (t_target + 1).
    For a rainbow partition r is the class size, floor(n / r) the class count.
    """
    n = len(cfg.points)
    if n < r * (t_target + 1):
        return (
            f"unachievable by pigeonhole: {n} points in {reprlib.repr(r)} parts leave "
            f"some part with at most {n // r} points, and removing that part empties it"
        )
    return None


def certified_partition(
    cfg: PointConfig,
    r: int,
    t_target: int,
    seed: int,
    max_trials: int = DEFAULT_TRIALS,
) -> Optional[Tuple[Partition, ToleranceReport]]:
    """First random partition (over max_trials seeded trials) whose
    certified tolerance reaches t_target, or None."""
    draw = lambda s: random_partition(len(cfg.points), r, s)
    certify = lambda p: tolerance_by_lifted_depth(cfg, p, at_least=t_target)
    return _first_certified(cfg, r, t_target, draw, certify, seed, max_trials)


def certified_colored_partition(
    cfg: PointConfig,
    t_target: int,
    seed: int,
    max_trials: int = DEFAULT_TRIALS,
) -> Optional[Tuple[Partition, ToleranceReport]]:
    """Random rainbow partitions of a colored configuration until the
    class-removal tolerance reaches t_target, or None.

    Every color class must have the same size r >= 2; each trial sends
    each class onto the r parts by an independent uniform permutation.
    """
    r = cfg.class_size()
    classes = sorted(cfg.color_classes().items())

    def draw(trial_seed: int) -> Partition:
        rng = SplitMix64(trial_seed)
        labels = [0] * len(cfg.points)
        for _, members in classes:
            perm = rng.permutation(r)
            for pos, idx in enumerate(members):
                labels[idx] = perm[pos]
        return Partition(r, tuple(labels))

    certify = lambda p: colored_tolerance(cfg, p, at_least=t_target)
    return _first_certified(cfg, r, t_target, draw, certify, seed, max_trials)


def certified_reay_partition(
    cfg: PointConfig,
    r: int,
    k: int,
    t_target: int,
    seed: int,
    max_trials: int = DEFAULT_TRIALS,
) -> Optional[Tuple[Partition, ReayReport]]:
    """Random partitions until every k of the r hulls tolerates t_target
    removals, or None."""
    if not 2 <= k <= r:
        raise ValueError("k must lie in 2..r")
    draw = lambda s: random_partition(len(cfg.points), r, s)
    certify = lambda p: reay_tolerance(cfg, p, k, at_least=t_target)
    return _first_certified(cfg, r, t_target, draw, certify, seed, max_trials)


def sign_assignment(
    cfg: PointConfig,
    seed: int,
    max_trials: int = DEFAULT_TRIALS,
) -> Tuple[Tuple[int, ...], int]:
    """Best random sign flip over max_trials trials, as (signs, score): one
    sign in {-1, +1} per point, the signed copies being signs[i] * points[i].

    The score of an assignment is the origin's half-space depth among
    the signed points minus one: the number of signed points one may
    delete, whichever they are, with the origin still in the hull.
    Returns the first assignment attaining the best score.
    """
    if max_trials < 1:
        raise ValueError("need at least one trial")
    n = len(cfg.points)
    origin = (0,) * cfg.dim
    best: Optional[Tuple[Tuple[int, ...], int]] = None
    for i in range(max_trials):
        rng = SplitMix64(substream_seed(seed, i))
        signs = tuple(rng.next_sign() for _ in range(n))
        signed = PointConfig(
            dim=cfg.dim,
            points=tuple(
                tuple(s * x for x in pt) for s, pt in zip(signs, cfg.points)
            ),
        )
        # Only a depth of at least best + 2 improves the score, so a trial
        # may stop at the first half-space that keeps it below that.
        at_least = None if best is None else best[1] + 2
        tolerance = depth(signed, origin, at_least=at_least).depth - 1
        if best is None or tolerance > best[1]:
            best = (signs, tolerance)
    assert best is not None
    return best


def _first_certified(
    cfg: PointConfig,
    r: int,
    t_target: int,
    draw: Callable[[int], Partition],
    certify: Callable[[Partition], Optional[Report]],
    seed: int,
    max_trials: int,
) -> Optional[Tuple[Partition, Report]]:
    """The first trial partition, drawn from substream (seed, i), that
    ``certify`` does not refute (None), with its report; or None."""
    _check_search(r, t_target, max_trials)
    if unreachable(cfg, t_target, r) is not None:
        return None
    for i in range(max_trials):
        p = draw(substream_seed(seed, i))
        report = certify(p)
        if report is not None:
            return p, report
    return None


def _check_search(r: int, t_target: int, max_trials: int) -> None:
    if r < 2:
        raise ValueError("need at least two parts")
    if t_target < 0:
        raise ValueError("target tolerance must be nonnegative")
    if max_trials < 1:
        raise ValueError("need at least one trial")
