"""Deterministic RNG: reference vectors, substreams, sampling quality."""

import math
from collections import Counter

import pytest

from tverberg.rng import SplitMix64, substream_seed


def test_reference_vector_seed_zero():
    # First outputs of SplitMix64 with seed 0, as published for the
    # Steele/Lea/Flood finalizer constants.
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    streams = {SplitMix64(s).next_u64() for s in range(32)}
    assert len(streams) == 32


def test_substream_seeds_distinct_and_stable():
    parent = 20240801
    seeds = [substream_seed(parent, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert substream_seed(parent, 7) == seeds[7]
    assert all(0 <= s < (1 << 64) for s in seeds)


def test_substream_rejects_negative_index():
    with pytest.raises(ValueError):
        substream_seed(1, -1)


def test_next_below_bounds_and_determinism():
    g = SplitMix64(42)
    draws = [g.next_below(7) for _ in range(1000)]
    assert all(0 <= x < 7 for x in draws)
    h = SplitMix64(42)
    assert draws == [h.next_below(7) for _ in range(1000)]


def test_next_below_uniformity_three_sigma():
    n, trials = 7, 100_000
    g = SplitMix64(777)
    counts = Counter(g.next_below(n) for _ in range(trials))
    expected = trials / n
    sigma = math.sqrt(trials * (1 / n) * (1 - 1 / n))
    for value in range(n):
        assert abs(counts[value] - expected) < 3 * sigma


def test_next_below_one_is_constant_zero():
    g = SplitMix64(5)
    assert [g.next_below(1) for _ in range(10)] == [0] * 10


def test_next_below_rejects_nonpositive():
    g = SplitMix64(5)
    with pytest.raises(ValueError):
        g.next_below(0)


def test_next_below_refuses_bounds_past_one_draw():
    # Past 2**64 no draw could be accepted, so the bound is refused.
    g = SplitMix64(5)
    with pytest.raises(ValueError):
        g.next_below((1 << 64) + 1)
    assert g.next_below(1 << 64) == SplitMix64(5).next_u64()


def test_next_sign_values_and_balance():
    g = SplitMix64(11)
    draws = [g.next_sign() for _ in range(10_000)]
    assert set(draws) <= {-1, 1}
    positives = sum(1 for x in draws if x == 1)
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(positives - 5000) < 3 * sigma


def test_shuffle_preserves_multiset_and_is_seeded():
    items = list(range(20)) + [3, 3, 7]
    first = list(items)
    SplitMix64(99).shuffle(first)
    assert sorted(first) == sorted(items)
    second = list(items)
    SplitMix64(99).shuffle(second)
    assert first == second
    third = list(items)
    SplitMix64(100).shuffle(third)
    assert third != first


def test_permutation_is_one_based_and_uniformish():
    g = SplitMix64(2024)
    perm = g.permutation(9)
    assert sorted(perm) == list(range(1, 10))
    # Position of value 1 should be roughly uniform across repeats.
    trials = 9_000
    counts = Counter(SplitMix64(s).permutation(9).index(1) for s in range(trials))
    expected = trials / 9
    sigma = math.sqrt(trials * (1 / 9) * (1 - 1 / 9))
    for pos in range(9):
        assert abs(counts[pos] - expected) < 4 * sigma
