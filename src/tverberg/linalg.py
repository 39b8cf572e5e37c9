"""Exact rational scalars and vectors, and small integer matrices.

Scalars are ``fractions.Fraction`` values, which the standard library keeps
in lowest terms with a positive denominator, so equality and hashing behave
canonically.  Vectors are plain tuples of Fractions; matrices are
sequences of integer rows, their denominators cleared.

Integer determinants, and through them kernel vectors, run fraction-free
(Bareiss) elimination, which bounds the intermediate entry growth without
per-step gcd normalization.  Row bases and the hull LP's simplex share
``eliminate``, the gcd-reduced row step.  No floating point is used
anywhere in this module.
"""

from __future__ import annotations

import reprlib
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Iterable, Sequence

Vector = tuple[Fraction, ...]


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or string like "3/4" or "1.25" to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return scalar_from_str(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an exact scalar")


def scalar_to_str(x: Fraction) -> str:
    """Serialize a scalar as "num/den", keeping the denominator even when 1."""
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


# str() refuses an int longer than sys.get_int_max_str_digits() (4,300 digits
# by default, 640 at the least), so longer ints are written 600 digits at a time.
_PIECE = 10**600


def _digits(n: int) -> str:
    """str(n), at any length."""
    head, pieces = abs(n), []
    while head >= _PIECE:
        head, low = divmod(head, _PIECE)
        pieces.append(f"{low:0600d}")
    return "-" * (n < 0) + str(head) + "".join(reversed(pieces))


def scalar_from_str(text: str) -> Fraction:
    """Parse "p/q" or an exact decimal string.

    Raises ValueError for anything else, a non-string, a zero denominator
    or a decimal exponent included, so malformed input reads as invalid
    input.  Exponents are refused because "1e999999999" would build
    10**999999999 exactly.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a number string, got {reprlib.repr(text)}")
    if "e" in text or "E" in text:
        raise ValueError(f"decimal exponents are not accepted: {reprlib.repr(text)}")
    try:
        return parse_in_short(Fraction, text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {reprlib.repr(text)}") from None


def parse_in_short(parse: Callable[[str], Any], s: str) -> Any:
    """parse(s), as int(), float() or Fraction() reads it; its ValueError
    quotes s through reprlib (the parsers' own messages repeat the whole
    literal) and words int()'s digit limit."""
    try:
        return parse(s)
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):
            limit = sys.get_int_max_str_digits()
            exc = ValueError(f"an integer in {s!r} exceeds the {limit}-digit limit")
        raise ValueError(str(exc).replace(repr(s), reprlib.repr(s))) from None


def int_from_json(value: object, what: str) -> int:
    """A JSON integer as is; booleans and other numbers raise ValueError
    rather than being truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {reprlib.repr(value)}")
    return value


def as_vector(entries: Iterable[int | str | Fraction]) -> Vector:
    vec = tuple(as_scalar(e) for e in entries)
    if not vec:
        raise ValueError("vectors must have at least one entry")
    return vec


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def clear_denominators(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive integer to an integer vector.

    Positive scaling preserves every sign and incidence predicate built on
    dot products, which is all the geometric code relies on.
    """
    # Lists, not generators: CPython builds a tuple from a generator by
    # resizing it, which can strand blocks in its per-size tuple free lists.
    scale = lcm(*[x.denominator for x in vec])
    return tuple([x.numerator * (scale // x.denominator) for x in vec])


def primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def row_basis(vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integer row-echelon basis of the span of the given integer vectors."""
    rows = [primitive(v) for v in vectors if any(v)]
    basis: list[tuple[int, ...]] = []
    for col in range(len(rows[0]) if rows else 0):
        at = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if at is not None:
            pivot = rows.pop(at)
            rows = [r for r in (eliminate(r, pivot, col) for r in rows) if any(r)]
            basis.append(tuple(pivot))
    return basis


def eliminate(target: Sequence[int], prow: Sequence[int], col: int) -> Sequence[int]:
    """prow[col] * target - target[col] * prow over its gcd, which clears
    column col: a multiple of the rational row step, positive if the pivot is."""
    f = target[col]
    if f == 0:
        return target
    p = prow[col]
    row = [p * a - f * b for a, b in zip(target, prow)]
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division is exact, and no Fractions."""
    rows = [list(r) for r in rows]
    n = len(rows)
    sign = prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot_row is None:
                return 0
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        rk = rows[k]
        pivot = rk[k]
        for ri in rows[k + 1 :]:
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - lead * rk[j]) // prev
        prev = pivot
    return sign * prev


def kernel_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Primitive integer kernel vector of a (k-1) x k integer matrix.

    Computed as the vector of signed maximal minors (the generalized cross
    product): entry j is (-1)^j times the minor that drops column j.
    No rows (k = 1) give (1,), the empty minor being 1.  Returns None when
    the rows are linearly dependent, in which case every minor vanishes.

    One row (a, b) is the exception: it gives primitive (-b, a), the
    negative of the general rule's (b, -a).  The depth search takes every
    candidate's normal from here, and its witnesses follow these signs.
    """
    m = len(rows)
    k = m + 1
    if any(len(r) != k for r in rows):
        raise ValueError("kernel_vector expects a (k-1) x k matrix")
    if m == 1:
        a, b = rows[0]
        if a == 0 and b == 0:
            return None
        return primitive((-b, a))
    out = tuple(
        (-1) ** drop * int_det([[r[j] for j in range(k) if j != drop] for r in rows])
        for drop in range(k)
    )
    if not any(out):
        return None
    vec = primitive(out)
    for r in rows:
        if sum(a * b for a, b in zip(r, vec)) != 0:
            raise AssertionError("kernel vector fails orthogonality")
    return vec
