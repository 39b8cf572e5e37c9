"""Exact half-space depth of a query point, with witnesses.

The depth of c in X is the least number of points of X that a closed
half-space containing c must hold.  Block depth generalizes the count to the
number of distinct blocks touched, for a given partition of the points into
blocks; point depth is block depth with singleton blocks.

Everything reduces, after translating c to the origin and clearing
denominators (a positive per-point scaling that preserves every sign), to
minimizing over nonzero integer directions v the set {w : <v, w> >= 0}.
The same sign-preserving integer rows re-check the witness, once: the
points whose row w has <v, w> >= 0 (a point equal to c has w = 0) form its
closed side, which must touch exactly the certified number of blocks.  The
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
once, in both orientations, at its first spanning subset, and a side that
cannot beat the best value so far is pruned before anything else is done.
At rank 1 the one subset is empty and its normal is the basis vector, so
the two candidates are the two directions of the line.

At rank 3, which covers every d=2, r=2 lift and every 3-D query, the
candidates and their side counts come from an angular sweep (Rousseeuw &
Ruts, AS 307, 1996).  The subsets are pairs, and the planes through the
first point a of a pair form a pencil: projected exactly onto the quotient
plane by a, each plane of the pencil is one line through the origin, whose
smallest item index gives its first spanning pair.  The projected points
are sorted once by exact integer angle keys, and two windows rotating with
the plane give the number of new blocks strictly on each side of every
plane of the pencil, so a pencil costs O(M log M) rather than M dot
products for each of its up to M planes.  A plane gets its normal and dot
products only when one of its sides survives the prune; they recount both
sides exactly, and a disagreement raises AssertionError.  The sweep changes
no candidate, order or tie-break: ``candidate_count`` still counts every
oriented hyperplane examined, pruned or not, recursion included.

Points lying exactly on a candidate hyperplane are resolved by the same
search, recursing on them: an infinitesimal tilt keeps every strictly-signed
point on its side and re-plays the minimization among the boundary points.
Realized witnesses are exact: a tilt by 1/K with integer K larger than any
inner product cannot flip a strict sign, so nested tilts collapse to a
single integer normal.  A caller that asks only whether the depth reaches
``at_least`` lets the search stop at the first side touching fewer blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .geometry import HalfSpace, PointConfig
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
Ray = tuple[int, int]


@dataclass(frozen=True)
class DepthCertificate:
    """Depth value with a minimizing closed half-space.

    ``inside`` holds the sorted indices of the points in the witness's
    closed half-space, points equal to the query included; it comes from
    the one exact side test of the witness, on the integer rows the search
    used, and touches exactly ``depth`` blocks.  ``to_json`` leaves it out.
    ``candidate_count`` records how many oriented candidate directions the
    search examined, recursion included.
    """

    depth: int
    witness: HalfSpace
    inside: tuple[int, ...]
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


def _canon(vec: IntVec) -> IntVec:
    """A primitive vector oriented to a positive leading nonzero entry."""
    lead = next(x for x in vec if x != 0)
    return vec if lead > 0 else tuple(-x for x in vec)


def _distinct_normals(coords: Sequence[IntVec], k: int):
    """(first spanning (k-1)-subset, kernel vector) per candidate hyperplane
    of the rank-k coordinates, in the order those subsets are enumerated."""
    seen: set[IntVec] = set()
    for subset, z in hyperplane_normals(coords, k):
        key = _canon(z)
        if key not in seen:
            seen.add(key)
            yield subset, z


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
    stop: int = 0,
) -> tuple[int, IntVec | None]:
    """Minimum number of newly hit blocks over all tilt-resolved directions.

    Returns the optimum together with an integer normal realizing it, or
    (0, None) when there is nothing left to separate; the first side with
    at most ``stop`` new blocks is returned at once, an upper bound.
    """
    if not items:
        return 0, None
    basis = row_basis([w for _, w in items])
    k = len(basis)
    coords = [tuple(_idot(q, w) for q in basis) for _, w in items]

    if k == 3:
        # Planes and side counts come from a sweep of each pencil; dense
        # label ids index its window counts, and None marks a hit block.
        dense: dict[int, int] = {}
        fresh = [
            None if labels[idx] in hit else dense.setdefault(labels[idx], len(dense))
            for idx, _ in items
        ]
        candidates = _pencil_planes(coords, fresh)
    else:
        candidates = _distinct_normals(coords, k)
    best_val: int | None = None
    best_normal: IntVec | None = None
    for subset, found in candidates:
        counter[0] += 2
        swept = None
        if k == 3:
            swept = found  # (positive side, negative side)
            if best_val is not None and min(swept) >= best_val:
                continue  # both sides pruned, as their dot products would show
            (a1, a2, a3), (b1, b2, b3) = coords[subset[0]], coords[subset[1]]
            z = primitive((a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1))
            if _idot(z, coords[subset[0]]) or _idot(z, coords[subset[1]]):
                raise AssertionError("kernel vector fails orthogonality")
        else:
            z = found
        dots = [sum(map(mul, z, cv)) for cv in coords]
        boundary = [items[i] for i, s in enumerate(dots) if s == 0]
        for sign in (1, -1):
            new = {
                labels[idx]
                for (idx, _), s in zip(items, dots)
                if s * sign > 0
            } - hit
            if swept is not None and len(new) != swept[sign < 0]:
                raise AssertionError("pencil sweep miscounted a side")
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
                if best_val <= stop:
                    return best_val, best_normal
    if best_val is None:
        raise AssertionError("spanning set produced no candidate hyperplane")
    return best_val, best_normal


def _angle_order(rays) -> list[Ray]:
    """Distinct primitive rays sorted by exact angle from the positive x
    axis: the upper half-plane (angle 0 first), then the lower one (angle pi
    first), each by the integer key floor(-x * s / y) of its ray or of the
    ray's negation.  Two slopes of primitive rays with 0 < y1, y2 < s differ
    by at least 1 / (y1 * y2) > 1 / s, so distinct rays get distinct keys."""
    s = 1 + max(y * y for _, y in rays)
    upper = sorted((r for r in rays if r[1] > 0), key=lambda r: -r[0] * s // r[1])
    lower = sorted((r for r in rays if r[1] < 0), key=lambda r: r[0] * s // -r[1])
    return [(1, 0)] * ((1, 0) in rays) + upper + [(-1, 0)] * ((-1, 0) in rays) + lower


def _pencil_planes(coords: Sequence[IntVec], fresh: Sequence[int | None]):
    """((i, j), swept) per candidate plane of the rank-3 coordinates, in the
    order of ``_distinct_normals(coords, 3)``; ``swept`` holds the number of
    new labels on the open positive and on the open negative side of the
    plane with normal coords[i] x coords[j], and ``fresh`` each item's
    label, or None when its block is already hit.

    The planes through a = coords[i] form a pencil.  Eliminating a nonzero
    coordinate c of a projects each w exactly onto the quotient plane, to
    a[c] * w - w[c] * a without coordinate c; then
    det(a, b, w) = a[c] * (-1)^c * cross(Pb, Pw), so after fixing that sign
    by the order of the two kept coordinates, w lies on the positive side of
    a x b exactly when Pw is counterclockwise of Pb within a half turn.
    Each plane of the pencil is one projected line (a ray and its antipode),
    and (i, j) is its first spanning pair exactly when j is the smallest
    index on that line and no item before i is parallel to a; if one is,
    it spanned every plane of the pencil first.  The projected directions
    are sorted once by exact angle, and two windows rotating with the plane
    count the labels strictly on each side (``_window_counts``).
    """
    for i in range(len(coords) - 1):
        a = coords[i]
        c = next(t for t in range(3) if a[t])
        c1, c2 = (t for t in range(3) if t != c)
        if (a[c] < 0) != (c == 1):
            c1, c2 = c2, c1
        ac, a1, a2 = a[c], a[c1], a[c2]
        rays: dict[Ray, list[int]] = {}
        first: dict[Ray, tuple[int, Ray]] = {}
        for h, (w, label) in enumerate(zip(coords, fresh)):
            x = ac * w[c1] - w[c] * a1
            y = ac * w[c2] - w[c] * a2
            if not (x or y):
                if h < i:
                    break  # an earlier parallel item spanned the pencil
                continue
            g = gcd(x, y)
            ray = (x // g, y // g)
            group = rays.setdefault(ray, [])
            if label is not None:
                group.append(label)
            # The line's first item, keyed by the ray of its upper half.
            line = ray if y > 0 or (y == 0 and x > 0) else (-ray[0], -ray[1])
            first.setdefault(line, (h, ray))
        else:  # no item before i is parallel to a
            # first.values() runs in index order, as the pair walk does.
            planes = [(j, ray) for j, ray in first.values() if j > i]
            if planes:
                counts = _window_counts(rays, len(fresh))
                for j, ray in planes:
                    yield (i, j), counts[ray]


def _window_counts(rays: dict[Ray, list[int]], size: int) -> dict[Ray, tuple[int, int]]:
    """Per ray, the number of distinct labels (ids below ``size``) on the
    rays strictly counterclockwise of it within a half turn, and on those
    strictly clockwise of it within a half turn."""
    order = _angle_order(rays)
    turns = len(order)
    dirs = order + order
    # Labels of the doubled ray list; ray p's are flat[start[p]:start[p + 1]].
    flat: list[int] = []
    start = [0]
    for ray in dirs:
        flat += rays[ray]
        start.append(len(flat))
    # Two windows [lo, hi) of the doubled ray list, each with how often
    # every label occurs in it and how many distinct labels that makes.
    pos_count, neg_count = [0] * size, [0] * size
    pos_lo = pos_hi = pos_size = neg_lo = neg_hi = neg_size = 0
    counts: dict[Ray, tuple[int, int]] = {}
    for t, (x, y) in enumerate(order):
        # Rays t+1 .. opposite-1 turn less than half a turn from ray t; the
        # antipode of ray t, if present, sits at opposite.
        opposite = max(pos_hi, t + 1)
        end = t + turns
        while opposite < end:
            u, v = dirs[opposite]
            if x * v - y * u <= 0:
                break
            opposite += 1
        behind = opposite
        if behind < end and x * dirs[behind][1] == y * dirs[behind][0]:
            behind += 1  # the antipode lies on the plane
        for label in flat[start[pos_hi]:start[opposite]]:
            pos_size += not pos_count[label]
            pos_count[label] += 1
        for label in flat[start[pos_lo]:start[t + 1]]:
            pos_count[label] -= 1
            pos_size -= not pos_count[label]
        for label in flat[start[neg_hi]:start[end]]:
            neg_size += not neg_count[label]
            neg_count[label] += 1
        for label in flat[start[neg_lo]:start[behind]]:
            neg_count[label] -= 1
            neg_size -= not neg_count[label]
        pos_lo, pos_hi, neg_lo, neg_hi = t + 1, opposite, behind, end
        counts[order[t]] = (pos_size, neg_size)
    return counts


def _blocks_to_labels(cfg: PointConfig, blocks: Sequence[Sequence[int]]) -> list[int]:
    n = len(cfg.points)
    labels = [-1] * n
    for b, group in enumerate(blocks):
        for i in group:
            if not 0 <= i < n:
                raise ValueError(f"point index {i} out of range")
            if labels[i] != -1:
                raise ValueError(f"point index {i} appears in two blocks")
            labels[i] = b
    if any(l == -1 for l in labels):
        missing = [i for i, l in enumerate(labels) if l == -1]
        raise ValueError(f"blocks do not cover point indices {missing}")
    return labels


def _depth_impl(
    cfg: PointConfig, labels: Sequence[int], c: Vector, mode: str, at_least: int | None
) -> DepthCertificate:
    if len(c) != cfg.dim:
        raise ValueError("query point dimension does not match the configuration")
    rows = [(i, clear_denominators(vec_sub(p, c))) for i, p in enumerate(cfg.points)]
    nonzero = [(i, w) for i, w in rows if any(w)]
    prehit = frozenset(labels[i] for i, w in rows if not any(w))
    counter = [0]
    stop = 0 if at_least is None else max(0, at_least - 1 - len(prehit))
    value, normal = _search(nonzero, labels, prehit, counter, stop)
    total = len(prehit) + value
    if normal is None:
        normal = tuple(1 if t == 0 else 0 for t in range(cfg.dim))
    # Each row is a positive multiple of p - c, so <normal, w> >= 0 exactly
    # when p lies in the closed witness half-space; a zero row lies on it.
    inside = tuple(i for i, w in rows if _idot(normal, w) >= 0)
    achieved = len({labels[i] for i in inside})
    if achieved != total:
        raise AssertionError(
            f"witness half-space touches {achieved} blocks, search said {total}"
        )
    fnormal = tuple(Fraction(x) for x in normal)
    return DepthCertificate(
        depth=total,
        witness=HalfSpace(normal=fnormal, offset=dot(fnormal, c)),
        inside=inside,
        candidate_count=counter[0],
        mode=mode,
    )


def depth(cfg: PointConfig, c: Vector, at_least: int | None = None) -> DepthCertificate:
    """Exact half-space depth of c in the configuration, with witness; a depth
    below ``at_least`` may come back as the first side found with fewer points."""
    return _depth_impl(cfg, list(range(len(cfg.points))), c, "point-depth", at_least)


def block_depth(
    cfg: PointConfig,
    blocks: Sequence[Sequence[int]],
    c: Vector,
    at_least: int | None = None,
) -> DepthCertificate:
    """Least number of distinct blocks a closed half-space through c touches."""
    labels = _blocks_to_labels(cfg, blocks)
    return _depth_impl(cfg, labels, c, "block-depth", at_least)


def depth_oracle(cfg: PointConfig, c: Vector, budget: int | None = None) -> int:
    """Depth recomputed independently: the smallest number of points whose
    removal pulls c out of the convex hull of the rest.

    This is the removal scan with c as one more, fixed part that no removal
    unit meets: the hull of the points meets {c} exactly when it holds c.
    A removal that misses the support of a hull witness found earlier
    leaves c in the hull, so it is skipped without an LP; every other
    removal costs one LP feasibility call, under the scan's budget.
    """
    from .verify import _removal_scan

    if len(c) != cfg.dim:
        raise ValueError("query point dimension does not match the configuration")
    n = len(cfg.points)
    origin = (Fraction(0),) * cfg.dim
    shifted = PointConfig(
        dim=cfg.dim, points=tuple(vec_sub(p, c) for p in cfg.points) + (origin,)
    )
    units = {i: [i] for i in range(n)}
    report, _ = _removal_scan(
        shifted, [range(n), [n]], units, budget=budget, scan="depth_oracle"
    )
    return report.tolerance + 1

