"""Derangement counts (``bounds.derangements``), and the lemma behind the
colored bound: distinct forbidden values maximize the permutations that
avoid them.  Avoidance is counted by enumerating every permutation."""

from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest

from tverberg.bounds import derangements


def test_derangement_base_and_small_values():
    assert derangements(0) == 1
    assert derangements(1) == 0
    assert derangements(2) == 1
    assert derangements(3) == 2
    assert derangements(4) == 9
    assert derangements(5) == 44


def forbidden_avoidance_count(forbidden):
    """Permutations sigma of 1..r with sigma(i) != forbidden[i] for every i."""
    r = len(forbidden)
    return sum(
        1
        for sigma in permutations(range(1, r + 1))
        if all(s != v for s, v in zip(sigma, forbidden))
    )


@pytest.mark.parametrize("r", range(2, 8))
def test_recurrence_matches_enumeration(r):
    assert derangements(r) == forbidden_avoidance_count(tuple(range(1, r + 1)))


def test_avoidance_with_duplicate_forbidden_values():
    # sigma(1) != 1, sigma(2) != 1, sigma(3) != 2: only (2,3,1) and (3,2,1).
    assert forbidden_avoidance_count((1, 1, 2)) == 2


def test_avoidance_single_element():
    assert forbidden_avoidance_count((1,)) == 0


def test_avoidance_constant_forbidden_list_is_zero():
    # Every permutation sends some position to the single forbidden value.
    assert forbidden_avoidance_count((2, 2, 2)) == 0


@pytest.mark.parametrize("r", range(1, 7))
def test_distinct_forbidden_values_maximize_avoidance(r):
    # Relabeling permutes positions and values independently, so checking
    # one representative per value multiset covers every forbidden list.
    best = derangements(r)
    for values in combinations_with_replacement(range(1, r + 1), r):
        count = forbidden_avoidance_count(values)
        assert count <= best
        if len(set(values)) == r:
            assert count == best


def test_avoidance_complement_probability_is_fixed_point_rate():
    # Hitting at least one forbidden value when all are distinct happens
    # with probability exactly 1 - D_r / r!.
    r = 5
    miss = forbidden_avoidance_count(tuple(range(1, r + 1)))
    assert factorial(r) - miss == factorial(r) - derangements(r)


def test_derangements_rejects_negative():
    with pytest.raises(ValueError):
        derangements(-1)
