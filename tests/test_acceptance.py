"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints a single pass/fail line (visible with -s or on
failure) and pins its numeric expectations exactly; runtime-limited
criteria assert their wall-clock budget as well.
"""

import math
import time
from itertools import combinations_with_replacement, permutations

from tverberg.bounds import (
    carath_guaranteed_depth,
    colored_tolerance_from_n,
    derangements,
    fixed_point_probability,
    n_for_probability,
    reay_tolerance_from_m,
    tolerance_from_n,
)
from tverberg.depth import depth
from tverberg.engine import (
    certified_partition,
    random_block_choice,
    random_partition,
)
from tverberg.gen import colored_classes, line_points, uniform_ball
from tverberg.lift import lift_partition
from tverberg.linalg import dot
from tverberg.lp import hulls_intersect
from tverberg.partition import Partition
from tverberg.rng import SplitMix64, substream_seed
from tverberg.verify import (
    colored_tolerance,
    depth_oracle,
    reay_tolerance,
    tolerance_by_lifted_depth,
    tolerance_exhaustive,
)

from conftest import all_labelings, point_in_hull, random_int_config


def _report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {label}: {status} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_equality_bridge_sweep():
    # Exhaustive removal scan and lifted origin depth must agree on every
    # labeling (empty parts included) of every instance in the corpus.
    corpus = []
    for d in (1, 2):
        for n in (4, 5, 6, 7):
            for seed in range(5):
                corpus.append((random_int_config(n, d, seed=10 * d + seed), 2))
    for d in (1, 2):
        for n in (5, 6):
            for seed in range(3):
                corpus.append((random_int_config(n, d, seed=100 + 10 * d + seed), 3))
    for d in (1, 2):
        for seed in range(4):
            corpus.append((random_int_config(7, d, seed=200 + 10 * d + seed), 3))
    assert len(corpus) >= 50

    start = time.monotonic()
    checked = mismatches = 0
    for cfg, r in corpus:
        n = len(cfg.points)
        for labels in all_labelings(n, r):
            p = Partition(r=r, labels=labels)
            a = tolerance_exhaustive(cfg, p).tolerance
            b = tolerance_by_lifted_depth(cfg, p).tolerance
            checked += 1
            if a != b:
                mismatches += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "equality bridge sweep",
        mismatches == 0 and elapsed < 300,
        f"{len(corpus)} instances, {checked} labelings, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_depth_oracle_equivalence():
    start = time.monotonic()
    instances = 0
    disagreements = 0
    origin_of = {1: (0,), 2: (0, 0), 3: (0, 0, 0)}
    for d in (1, 2, 3):
        for n in (4, 5, 6, 7, 8, 9):
            for seed in range(6):
                cfg = random_int_config(n, d, seed=300 + 37 * d + seed, spread=7)
                instances += 1
                if depth(cfg, origin_of[d]).depth != depth_oracle(cfg, origin_of[d]):
                    disagreements += 1
                if instances == 100:
                    break
            if instances == 100:
                break
        if instances == 100:
            break
    elapsed = time.monotonic() - start
    _report(
        2,
        "depth oracle equivalence",
        instances == 100 and disagreements == 0 and elapsed < 120,
        f"{instances} instances, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_3_bound_regression():
    values = {
        "tolerance_from_n(100,1,2)": (tolerance_from_n(100, 1, 2), 26),
        "n_for_probability(25,1,2,0.5)": (n_for_probability(25, 1, 2, 0.5), 100),
        "reay_tolerance_from_m(100,1,3,2)": (reay_tolerance_from_m(100, 1, 3, 2), 8),
        "colored_tolerance_from_n(200,1,3)": (colored_tolerance_from_n(200, 1, 3), 77),
    }
    ok = all(got == want for got, want in values.values())
    carath = carath_guaranteed_depth(100, 2, 2)
    ok = ok and carath >= 27
    detail = ", ".join(f"{k}={got}" for k, (got, _) in values.items())
    _report(3, "bound regression", ok, f"{detail}, carath={carath}")


def test_criterion_4_monte_carlo_calibration():
    t, d, r, eps = 10, 2, 2, 0.5
    n = n_for_probability(t, d, r, eps)
    assert n == 68
    cfg = uniform_ball(n, d, radius=1000, seed=12345)
    start = time.monotonic()
    trials, hits = 200, 0
    for i in range(trials):
        p = random_partition(n, r, substream_seed(777, i))
        if tolerance_by_lifted_depth(cfg, p).tolerance >= t:
            hits += 1
    elapsed = time.monotonic() - start
    _report(
        4,
        "monte carlo calibration",
        hits >= trials // 2 and elapsed < 600,
        f"n={n}, {hits}/{trials} trials certified tolerance >= {t}, {elapsed:.1f}s",
    )


def test_criterion_5_pigeonhole_ceiling():
    over_cap = 0
    for seed in range(4):
        cfg = random_int_config(4, 1, seed=400 + seed)
        for labels in all_labelings(4, 2):
            p = Partition(r=2, labels=labels)
            if tolerance_exhaustive(cfg, p).tolerance > 1:
                over_cap += 1
    refusals_ok = (
        certified_partition(line_points(6), 2, 3, seed=0) is None
        and certified_partition(line_points(9), 3, 3, seed=0) is None
        and certified_partition(line_points(4), 2, 2, seed=0) is None
    )
    _report(
        5,
        "pigeonhole ceiling",
        over_cap == 0 and refusals_ok,
        f"{over_cap} four-point labelings above tolerance 1, refusals hold",
    )


def test_criterion_6_derangement_suite():
    recurrence_ok = all(
        derangements(r)
        == sum(
            1
            for perm in permutations(range(1, r + 1))
            if all(perm[i] != i + 1 for i in range(r))
        )
        for r in range(0, 8)
    )
    limit_gap = abs(float(fixed_point_probability(10)) - (1 - 1 / math.e))
    maximization_ok = all(
        sum(
            1
            for perm in permutations(range(1, r + 1))
            if all(s != v for s, v in zip(perm, values))
        )
        <= derangements(r)
        for r in range(1, 7)
        for values in combinations_with_replacement(range(1, r + 1), r)
    )
    trials = 100_000
    hits = sum(
        1
        for s in range(trials)
        if any(
            pos + 1 == img
            for pos, img in enumerate(random_block_choice(3, seed=s))
        )
    )
    p = 2 / 3
    sigma = math.sqrt(trials * p * (1 - p))
    rate_ok = abs(hits - trials * p) < 3 * sigma
    _report(
        6,
        "derangement suite",
        recurrence_ok and limit_gap < 1e-6 and maximization_ok and rate_ok,
        f"recurrence={recurrence_ok}, |p(10)-limit|={limit_gap:.2e}, "
        f"maximization={maximization_ok}, fixed-point rate {hits / trials:.4f}",
    )


def _closed_side(cfg, h):
    """Points of cfg in the closed half-space h (inside + boundary),
    counted by substitution."""
    return sum(dot(h.normal, q) >= h.offset for q in cfg.points)


def _plain_integrity(cfg, p, report):
    lifted_cfg = lift_partition(cfg, p)
    cert = report.certificate
    if _closed_side(lifted_cfg, cert.witness) != cert.depth or cert.witness.offset > 0:
        return False
    removal = set(report.witness_removal)
    survivors = [[i for i in part if i not in removal] for part in p.parts()]
    if hulls_intersect(cfg, survivors) is not None:
        return False
    if report.tolerance >= 0:
        if report.common_point is None:
            return False
        for part in p.parts():
            if not point_in_hull(report.common_point, [cfg.points[i] for i in part]):
                return False
    return True


def test_criterion_7_witness_integrity():
    checked = 0
    failures = 0

    for d, r in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        for seed in range(5):
            cfg = random_int_config(8, d, seed=500 + 17 * d + seed)
            p = random_partition(8, r, seed=600 + seed)
            report = tolerance_by_lifted_depth(cfg, p)
            checked += 1
            if not _plain_integrity(cfg, p, report):
                failures += 1

    # Colored reports: removing the witness classes must break the hulls.
    for seed in range(4):
        cfg = colored_classes(5, 2, dim=2, radius=9, seed=seed)
        rng = SplitMix64(seed)
        labels = [0] * 10
        for color, members in sorted(cfg.color_classes().items()):
            perm = rng.permutation(2)
            for pos, idx in enumerate(members):
                labels[idx] = perm[pos]
        p = Partition(r=2, labels=tuple(labels))
        report = colored_tolerance(cfg, p)
        checked += 1
        gone = {
            i
            for color in report.witness_removal
            for i in cfg.color_classes()[color]
        }
        survivors = [[i for i in part if i not in gone] for part in p.parts()]
        if hulls_intersect(cfg, survivors) is not None:
            failures += 1

    # Reay reports: each tuple's witness breaks that tuple's own hulls.
    for seed in range(4):
        cfg = random_int_config(9, 1, seed=700 + seed)
        p = Partition(r=3, labels=(1, 2, 3) * 3)
        report = reay_tolerance(cfg, p, 2)
        for parts, rep in report.tuples:
            checked += 1
            removal = set(rep.witness_removal)
            survivors = [
                [i for i in p.parts()[j - 1] if i not in removal] for j in parts
            ]
            if hulls_intersect(cfg, survivors) is not None:
                failures += 1

    # Raw depth certificates on unlifted instances re-verify the same way.
    for d in (1, 2, 3):
        for seed in range(5):
            cfg = random_int_config(7, d, seed=800 + 13 * d + seed)
            cert = depth(cfg, (0,) * d)
            checked += 1
            if _closed_side(cfg, cert.witness) != cert.depth or cert.witness.offset > 0:
                failures += 1

    _report(
        7,
        "witness integrity",
        failures == 0,
        f"{checked} certificates re-verified, {failures} failures",
    )


def test_criterion_8_twelve_point_line():
    cfg = line_points(12)
    found = certified_partition(cfg, 2, 4, seed=0, max_trials=200)
    ok = found is not None
    confirmed = None
    if ok:
        p, report = found
        confirmed = tolerance_exhaustive(cfg, p).tolerance
        ok = report.tolerance == 4 and confirmed == 4
    _report(
        8,
        "12-point line instance",
        ok,
        f"search succeeded={found is not None}, exhaustive tolerance={confirmed}",
    )
