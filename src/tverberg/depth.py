"""Exact half-space depth of a query point, with witnesses.

The depth of c in X is the least number of points of X that a closed
half-space containing c must hold.  Block depth generalizes the count to the
number of distinct blocks touched, for a given partition of the points into
blocks; point depth is block depth with singleton blocks.

Everything reduces, after translating c to the origin and clearing
denominators (a positive per-point scaling that preserves every sign), to
minimizing over nonzero integer directions v the set {w : <v, w> >= 0}.  The
minimum is attained in an open cell of the central hyperplane arrangement of
the w's, and every open cell touches a "vertex" direction orthogonal to some
spanning subset of size rank-1.  The search writes the w's in coordinates of
an integer basis of their span (rank k) and enumerates the vertex directions
with ``linalg.hyperplane_normals``: it walks the (k-1)-subsets depth-first in
lexicographic order, and each subset prefix shares one fraction-free
(Bareiss) elimination, so appending a point costs one row reduction against
the prefix and a linearly dependent prefix prunes its whole subtree.  A leaf
reads two maximal minors off its reduced last row and recovers the rest of
the kernel vector by exact back-substitution.  Each hyperplane is examined
once, in both orientations, at its first spanning subset.  Points lying
exactly on a candidate hyperplane are resolved by recursing on them: an
infinitesimal tilt keeps every strictly-signed point on its side and
re-plays the same minimization among the boundary points.  Realized
witnesses are exact: a tilt by 1/K with integer K larger than any inner
product cannot flip a strict sign, so nested tilts collapse to a single
integer normal.

The same enumeration, run without the minimization and keeping one realized
half-space per locally perturbed cell, yields an explicit certificate family
with min-over-family equal to the depth of every subset of the input; its
size stays within 2 * 2^(d-1) * C(M, d-1) for M points spanning dimension d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from typing import Sequence

from .geometry import HalfSpace, PointConfig, side_counts
from .limits import BudgetExceeded, default_budget
from .linalg import (
    Vector,
    clear_denominators,
    dot,
    hyperplane_normals,
    primitive,
    row_basis,
    scalar_to_str,
    vec_sub,
)

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class DepthCertificate:
    """Depth value with a minimizing closed half-space.

    ``candidate_count`` records how many oriented candidate directions the
    search examined, recursion included.
    """

    depth: int
    witness: HalfSpace
    candidate_count: int
    mode: str  # "point-depth" | "block-depth"

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "mode": self.mode,
            "candidate_count": self.candidate_count,
            "witness_halfspace": {
                "normal": [scalar_to_str(x) for x in self.witness.normal],
                "offset": scalar_to_str(self.witness.offset),
            },
        }


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _shifted_int_vectors(
    cfg: PointConfig, c: Vector
) -> tuple[list[tuple[int, IntVec]], list[int]]:
    """(index, integer vector) pairs for points != c, plus indices equal to c."""
    if len(c) != cfg.dim:
        raise ValueError("query point dimension does not match the configuration")
    nonzero: list[tuple[int, IntVec]] = []
    zero: list[int] = []
    for i, p in enumerate(cfg.points):
        w = clear_denominators(vec_sub(p, c))
        if any(w):
            nonzero.append((i, w))
        else:
            zero.append(i)
    return nonzero, zero


def _canon(vec: IntVec) -> IntVec:
    """A primitive vector oriented to a positive leading nonzero entry."""
    lead = next(x for x in vec if x != 0)
    return vec if lead > 0 else tuple(-x for x in vec)


def _distinct_normals(coords: Sequence[IntVec], k: int):
    """One kernel vector per candidate hyperplane of the rank-k coordinates,
    in the order its first spanning (k-1)-subset is enumerated."""
    seen: set[IntVec] = set()
    for _, z in hyperplane_normals(coords, k):
        key = _canon(z)
        if key not in seen:
            seen.add(key)
            yield z


def _lift_normal(z: IntVec, basis: Sequence[IntVec]) -> IntVec:
    """The ambient vector with coordinates z in the given row basis."""
    return tuple(_idot(z, column) for column in zip(*basis))


def _combine(top: IntVec, sub: IntVec | None, strict: Sequence[IntVec]) -> IntVec:
    """One integer normal realizing "top, then infinitesimally sub"."""
    if sub is None:
        return top
    bound = 1 + max((abs(_idot(sub, w)) for w in strict), default=0)
    return tuple(bound * t + s for t, s in zip(top, sub))


def _search(
    items: Sequence[tuple[int, IntVec]],
    labels: Sequence[int],
    hit: frozenset[int],
    counter: list[int],
) -> tuple[int, IntVec | None]:
    """Minimum number of newly hit blocks over all tilt-resolved directions.

    Returns the optimum together with an integer normal realizing it, or
    (0, None) when there is nothing left to separate.
    """
    if not items:
        return 0, None
    basis = row_basis([w for _, w in items])
    k = len(basis)
    coords = [tuple(_idot(q, w) for q in basis) for _, w in items]

    if k == 1:
        counter[0] += 2
        pos = {labels[i] for (i, _), cv in zip(items, coords) if cv[0] > 0}
        neg = {labels[i] for (i, _), cv in zip(items, coords) if cv[0] < 0}
        val_pos, val_neg = len(pos - hit), len(neg - hit)
        if val_pos <= val_neg:
            return val_pos, basis[0]
        return val_neg, tuple(-x for x in basis[0])

    best_val: int | None = None
    best_normal: IntVec | None = None
    for z in _distinct_normals(coords, k):
        counter[0] += 2
        dots = [sum(map(mul, z, cv)) for cv in coords]
        boundary = [items[i] for i, s in enumerate(dots) if s == 0]
        for sign in (1, -1):
            new = {
                labels[idx]
                for (idx, _), s in zip(items, dots)
                if s * sign > 0
            } - hit
            if best_val is not None and len(new) >= best_val:
                continue
            sub_val, sub_normal = _search(
                boundary, labels, hit | new, counter
            )
            value = len(new) + sub_val
            if best_val is None or value < best_val:
                best_val = value
                top = _lift_normal(z if sign > 0 else tuple(-x for x in z), basis)
                strict = [items[i][1] for i, s in enumerate(dots) if s != 0]
                best_normal = _combine(top, sub_normal, strict)
                if best_val == 0:
                    return best_val, best_normal
    if best_val is None:
        raise AssertionError("spanning set produced no candidate hyperplane")
    return best_val, best_normal


def _blocks_to_labels(cfg: PointConfig, blocks: Sequence[Sequence[int]]) -> list[int]:
    n = len(cfg.points)
    labels = [-1] * n
    for b, group in enumerate(blocks):
        for i in group:
            if not 0 <= i < n:
                raise IndexError(f"point index {i} out of range")
            if labels[i] != -1:
                raise ValueError(f"point index {i} appears in two blocks")
            labels[i] = b
    if any(l == -1 for l in labels):
        missing = [i for i, l in enumerate(labels) if l == -1]
        raise ValueError(f"blocks do not cover point indices {missing}")
    return labels


def _depth_impl(
    cfg: PointConfig, labels: Sequence[int], c: Vector, mode: str
) -> DepthCertificate:
    nonzero, zero = _shifted_int_vectors(cfg, c)
    prehit = frozenset(labels[i] for i in zero)
    counter = [0]
    value, normal = _search(nonzero, labels, prehit, counter)
    total = len(prehit) + value
    if normal is None:
        normal = tuple(1 if t == 0 else 0 for t in range(cfg.dim))
    witness = HalfSpace(
        normal=tuple(Fraction(x) for x in normal),
        offset=dot(tuple(Fraction(x) for x in normal), c),
    )
    achieved = len(
        {
            labels[i]
            for i, p in enumerate(cfg.points)
            if dot(witness.normal, p) >= witness.offset
        }
    )
    if achieved != total:
        raise AssertionError(
            f"witness half-space touches {achieved} blocks, search said {total}"
        )
    return DepthCertificate(
        depth=total, witness=witness, candidate_count=counter[0], mode=mode
    )


def depth(cfg: PointConfig, c: Vector) -> DepthCertificate:
    """Exact half-space depth of c in the configuration, with witness."""
    return _depth_impl(cfg, list(range(len(cfg.points))), c, "point-depth")


def block_depth(
    cfg: PointConfig, blocks: Sequence[Sequence[int]], c: Vector
) -> DepthCertificate:
    """Least number of distinct blocks a closed half-space through c touches."""
    labels = _blocks_to_labels(cfg, blocks)
    return _depth_impl(cfg, labels, c, "block-depth")


def depth_oracle(cfg: PointConfig, c: Vector, budget: int | None = None) -> int:
    """Depth recomputed independently: the smallest number of points whose
    removal pulls c out of the convex hull of the rest.

    A removal that misses the support of a hull witness found earlier
    leaves c in the hull, so it is skipped without an LP; every other
    removal costs one LP feasibility call.  The budget charges every
    removal, skipped or not, and the scan refuses with BudgetExceeded
    rather than start a removal size it cannot finish.
    """
    from .lp import origin_in_hull

    if budget is None:
        budget = default_budget()
    if len(c) != cfg.dim:
        raise ValueError("query point dimension does not match the configuration")
    shifted = PointConfig(
        dim=cfg.dim, points=tuple(vec_sub(p, c) for p in cfg.points)
    )
    n = len(cfg.points)
    spent = 0
    everything = set(range(n))
    bits = [1 << i for i in range(n)]
    supports: list[int] = []  # bitmasks of the witnesses' nonzero weights
    for s in range(n + 1):
        cost = comb(n, s)
        if spent + cost > budget:
            raise BudgetExceeded(spent + cost, budget, "depth_oracle")
        spent += cost
        for removal, mask in zip(
            combinations(range(n), s), map(sum, combinations(bits, s))
        ):
            if any(not mask & support for support in supports):
                continue
            witness = origin_in_hull(shifted, everything - set(removal))
            if witness is None:
                return s
            supports.append(sum(bits[i] for i, w in witness.coefficients if w))
    raise AssertionError("removing every point always succeeds")


def candidate_halfspaces(cfg: PointConfig, c: Vector) -> list[HalfSpace]:
    """Closed half-spaces through c whose minimum count computes depth.

    For every subset Z of the input points, min over the family of |H * Z|
    equals the depth of c in Z: each member contains c, and the family
    includes one realized half-space per locally perturbed cell around every
    candidate hyperplane, which is where some minimizing half-space for any
    Z can be tilted.  For M points spanning dimension d the family stays
    within 2 * 2^(d-1) * C(M, d-1) members.
    """
    nonzero, _ = _shifted_int_vectors(cfg, c)
    vecs = [w for _, w in nonzero]
    d = cfg.dim

    def halfspace(normal: IntVec) -> HalfSpace:
        n = tuple(Fraction(x) for x in primitive(normal))
        return HalfSpace(normal=n, offset=dot(n, c))

    if not vecs:
        unit = tuple(1 if t == 0 else 0 for t in range(d))
        return [halfspace(unit)]

    members = _cell_normals(vecs)

    out: list[HalfSpace] = []
    seen: set[tuple[IntVec, Fraction]] = set()
    for normal in members:
        h = halfspace(normal)
        key = (tuple(int(x) for x in h.normal), h.offset)
        if key not in seen:
            seen.add(key)
            out.append(h)
    return out


def _cell_normals(vecs: list[IntVec]) -> list[IntVec]:
    """Directions hitting every full-dimensional cell of the central
    arrangement of the given nonzero integer vectors.

    Every returned v satisfies <v, w> != 0 for all inputs w: candidate
    hyperplane directions are tilted recursively until no input remains on
    the boundary.  Cells are reached with repetition (once per vertex of
    their closure), which only pads the family.
    """
    basis = row_basis(vecs)
    k = len(basis)
    if k == 0:
        return []
    coords = [tuple(_idot(q, w) for q in basis) for w in vecs]
    if k == 1:
        return [basis[0], tuple(-x for x in basis[0])]
    out: list[IntVec] = []
    for z in _distinct_normals(coords, k):
        dots = [_idot(z, cv) for cv in coords]
        boundary = [vecs[i] for i, s in enumerate(dots) if s == 0]
        strict = [vecs[i] for i, s in enumerate(dots) if s != 0]
        normal = _lift_normal(z, basis)
        for oriented in (normal, tuple(-x for x in normal)):
            if not boundary:
                out.append(oriented)
                continue
            for sub in _cell_normals(boundary):
                out.append(_combine(oriented, sub, strict))
    return out
