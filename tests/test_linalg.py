from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverberg.linalg import (
    as_vector,
    clear_denominators,
    dot,
    int_det,
    kernel_vector,
    primitive,
    row_basis,
    scalar_from_str,
    scalar_to_str,
)

from conftest import solve_by_cramer

F = Fraction


# The exact solver the tests' hull oracles share: Cramer's rule over int_det.
def test_solve_identity():
    assert solve_by_cramer([[1, 0], [0, 1]], [3, 4]) == (F(3), F(4))


def test_solve_singular_absent():
    assert solve_by_cramer([[1, 1], [2, 2]], [1, 1]) is None


def test_solve_hand_value():
    assert solve_by_cramer([[1, 1], [1, -1]], [2, 0]) == (F(1), F(1))
    # Rows are cleared of denominators, each with its right-hand side.
    assert solve_by_cramer([[F(1, 2), F(1, 3)], [1, -1]], [F(5, 6), 0]) == (1, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        )
    )
)
def test_solve_satisfies_system_exactly(case):
    rows, b = case
    a = tuple(as_vector(row) for row in rows)
    x = solve_by_cramer(a, b)
    if x is None:
        assert len(row_basis(rows)) < len(rows)
    else:
        for row, rhs in zip(a, b):
            assert dot(row, x) == rhs


def test_scalar_string_round_trip():
    for s in ("5/1", "-3/7", "0/1", "22/7"):
        assert scalar_to_str(scalar_from_str(s)) == s
    assert scalar_from_str("0.25") == F(1, 4)
    assert scalar_to_str(F(5)) == "5/1"


def test_scalar_to_str_writes_any_length():
    # str() refuses an int past 4,300 digits; these cross that limit and
    # the 600-digit pieces the writer converts, zeros inside a piece kept.
    x = F(-(9 * 10**5001 + 7), 10**600)
    assert scalar_to_str(x) == "-9" + "0" * 5000 + "7/1" + "0" * 600
    y = F(2 * 10**1200 + 10**600 + 3)
    assert scalar_to_str(y) == "2" + "0" * 599 + "1" + "0" * 599 + "3/1"
    # Reading keeps the interpreter's limit: such a coordinate is refused,
    # in words that name the limit and not the call that raises it.
    with pytest.raises(ValueError, match="exceeds the 4300-digit limit$"):
        scalar_from_str(scalar_to_str(x))


def test_clear_denominators_preserves_signs():
    v = (F(1, 2), F(-2, 3), F(0))
    w = clear_denominators(v)
    assert w == (3, -4, 0)
    assert all(isinstance(x, int) for x in w)


def test_primitive_divides_out_gcd():
    assert primitive((6, -9, 12)) == (2, -3, 4)
    assert primitive((0, 0, 5)) == (0, 0, 1)


def _leibniz_det(rows):
    """The determinant as a signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        term = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for row, j in zip(rows, perm):
            term *= row[j]
        total += term
    return total


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
# Zero leading pivots that force a row swap at the first and second steps,
# and singular matrices: a zero column, and dependent rows found only after
# a step of elimination.
@example([])
@example([[7]])
@example([[0, 1], [1, 0]])
@example([[0, 2, 1, 3], [0, 0, 4, 1], [5, 1, 0, 2], [0, 0, 0, 7]])
@example([[0, 0], [0, 5]])
@example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
def test_int_det_matches_leibniz(rows):
    assert int_det(rows) == _leibniz_det(rows)


def test_int_rank():
    assert len(row_basis([(1, 0), (0, 1)])) == 2
    assert len(row_basis([(1, 2), (2, 4)])) == 1
    assert len(row_basis([(0, 0)])) == 0
    assert len(row_basis([])) == 0


@pytest.mark.parametrize(
    "vectors, basis",
    [
        # Negative pivots: each new row is oriented by the pivot's sign.
        ([(-3, 6, 9), (2, -1, 4), (-5, 0, 1)], [(-1, 2, 3), (0, -3, -10), (0, 0, 1)]),
        # Non-primitive rows are divided by their gcd.
        (
            [(4, 6, 8, 10), (6, 9, 12, 16), (0, 10, 15, -5)],
            [(2, 3, 4, 5), (0, 2, 3, -1), (0, 0, 0, 1)],
        ),
        # Repeated and zero rows add nothing.
        ([(1, -2, 3), (1, -2, 3), (-2, 4, -6), (0, 0, 0), (0, 5, -5)], [(1, -2, 3), (0, 1, -1)]),
        # The first pivot comes from the last row.
        ([(0, -4, 2), (0, 6, -3), (0, 2, 8), (-6, 0, 0)], [(-1, 0, 0), (0, -2, 1), (0, 0, -1)]),
        ([(-2, -4), (-6, -12), (0, -7), (3, 5)], [(-1, -2), (0, -1)]),
    ],
)
def test_row_basis_rows_are_pinned(vectors, basis):
    assert row_basis(vectors) == basis


def test_row_basis_spans_same_space():
    rows = [(2, 4, 0), (1, 2, 0), (0, 0, 3)]
    basis = row_basis(rows)
    assert len(row_basis(basis)) == len(row_basis(rows)) == 2


def test_kernel_vector_cross_product():
    k = kernel_vector([(1, 0, 0), (0, 1, 0)])
    assert k is not None
    assert dot(k, (1, 0, 0)) == 0 and dot(k, (0, 1, 0)) == 0


def test_kernel_vector_single_row():
    k = kernel_vector([(2, 4)])
    assert k is not None and dot(k, (2, 4)) == 0 and any(k)


def test_kernel_vector_single_row_sign_convention():
    # one row (a, b) gives (-b, a), the negative of the general
    # (-1)^j * minor rule, which would give (b, -a)
    assert kernel_vector([(2, 4)]) == (-2, 1)
    assert kernel_vector([(3, -5)]) == (5, 3)
    assert kernel_vector([(0, 0)]) is None


def test_kernel_vector_general_sign_rule():
    # entry j is (-1)^j times the minor dropping column j
    assert kernel_vector([(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)
    assert kernel_vector([(0, 1, 0), (1, 0, 0)]) == (0, 0, -1)
    assert kernel_vector([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]) == (0, 0, 0, -1)


def test_kernel_vector_of_no_rows_is_the_unit():
    # The depth search's rank-1 candidate: the 0 x 1 matrix's one empty minor.
    assert kernel_vector([]) == (1,)


def test_kernel_vector_rank_deficient_rows():
    # rows that do not have full rank cannot pin a 1-dim kernel
    assert kernel_vector([(1, 2, 3), (2, 4, 6)]) is None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-4, 4), min_size=k, max_size=k),
            min_size=k - 1,
            max_size=k - 1,
        )
    )
)
def test_kernel_vector_orthogonal_when_present(rows):
    v = kernel_vector([tuple(r) for r in rows])
    if v is not None:
        assert any(v)
        for r in rows:
            assert dot(v, r) == 0


def test_as_vector_accepts_mixed_input():
    assert as_vector([1, "1/2", F(3, 4)]) == (F(1), F(1, 2), F(3, 4))
