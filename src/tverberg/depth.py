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
closed side, which must touch exactly the certified number of blocks.

The minimum is attained in an open cell of the central hyperplane
arrangement of the w's, and every open cell touches a "vertex" direction
orthogonal to some spanning subset of size rank-1.  The search writes the
w's in coordinates of an integer basis of their span (rank k), and one walk
enumerates those hyperplanes at every rank k >= 2, each once, in both
orientations, at its first spanning subset in lexicographic order.  The
hyperplanes through the span of an independent (k-2)-prefix P form a
pencil: in the 2-D quotient by span(P) each of them is one line through the
origin.  The walk visits the prefixes depth-first, and each node takes every
item one fraction-free (Bareiss) step further, so a dependent prefix prunes
its subtree and a leaf holds every item's exact image in the quotient, up
to one common integer factor.  A candidate line starts at one of the c items
after max(P), and the leaf counts the new blocks strictly on each side of its
lines.  Distinct live labels (point depth) sort the M items by integer angle
keys and bisect each open half-turn, O(M log M).  Repeated labels (block
depth) take the cheaper way (Dyckerhoff & Mozharovskyi, CSDA 98, 2016): c
rows of cross products for c up to about log2 M, O(c * M), else the sort and
one window of distinct labels turning through the upper rays, then their
antipodes (Rousseeuw & Ruts, AS 307, 1996).  At rank 2 the prefix is empty
and the one sweep is the planar depth algorithm; at rank 1 the candidates are
the two directions of the line.  A hyperplane gets its normal,
``linalg.kernel_vector`` of its subset, and its dot products only when one of
its sides survives the prune; one item off the hyperplane orients the sweep's
counts to the normal, the dot products recount both sides exactly, and a
disagreement raises AssertionError.  ``candidate_count`` counts every
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

import reprlib
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import mul
from typing import Sequence

from .geometry import HalfSpace, PointConfig
from .linalg import Vector, clear_denominators, dot, kernel_vector, row_basis, vec_sub

IntVec = tuple[int, ...]
# A line of a pencil: its first item, whether that item lies on the line's
# upper ray, and the labels on the upper and on the lower ray.
LineGroup = tuple[int, bool, list[int], list[int]]


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
            "witness_halfspace": self.witness.to_json(),
        }


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


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
    coords = [tuple(_idot(q, w) for q in basis) for _, w in items]
    # The pencil counters see each item's label, or None for a hit block.
    fresh = [None if labels[idx] in hit else labels[idx] for idx, _ in items]
    best_val = inf
    best_normal: IntVec | None = None
    for subset, swept, images in _pencil_walk(coords, fresh):
        counter[0] += 2
        if min(swept) >= best_val:
            continue  # both sides pruned, as their dot products would show
        z = kernel_vector([coords[i] for i in subset])  # (1,) at rank 1
        dots = [sum(map(mul, z, cv)) for cv in coords]
        if subset:
            # The sweep counts det(image j, image w) > 0 first; one item off
            # the hyperplane tells whether that side is z's positive one.
            w = next(h for h, s in enumerate(dots) if s)
            (a, b), (x, y) = images[subset[-1]], images[w]
            if (a * y > b * x) != (dots[w] > 0):
                swept = swept[::-1]
        boundary = [items[i] for i, s in enumerate(dots) if s == 0]
        for sign in (1, -1):
            new = {
                labels[idx]
                for (idx, _), s in zip(items, dots)
                if s * sign > 0
            } - hit
            if len(new) != swept[sign < 0]:
                raise AssertionError("pencil sweep miscounted a side")
            if len(new) >= best_val:
                continue
            sub_val, sub_normal = _search(
                boundary, labels, hit | new, counter
            )
            value = len(new) + sub_val
            if value < best_val:
                best_val = value
                top = _lift_normal(z if sign > 0 else tuple(-x for x in z), basis)
                strict = [items[i][1] for i, s in enumerate(dots) if s != 0]
                best_normal = _combine(top, sub_normal, strict)
                if best_val <= stop:
                    return best_val, best_normal
    if best_normal is None:
        raise AssertionError("spanning set produced no candidate hyperplane")
    return best_val, best_normal


def _pencil_walk(coords: Sequence[IntVec], fresh: Sequence[int | None]):
    """(subset, swept, images) per candidate hyperplane of the rank-k
    coordinates, at its first spanning (k-1)-subset in ``combinations``
    order and in that order.  ``images`` holds every item's image in the
    2-D quotient by the span of all of the subset but its last item j, and
    ``swept`` the number of distinct ``fresh`` labels (None marks a hit
    block) over the items w with det(image j, image w) > 0 and with
    det(image j, image w) < 0: the hyperplane's two open sides, in the
    sweep's own orientation.  At rank 1 the one candidate is the line's
    direction, with subset () and images None, and ``swept`` counts the
    items x > 0 and x < 0.

    The independent (k-2)-prefixes P are walked depth-first.  Each node
    takes every item one fraction-free (Bareiss) step further, so a
    dependent prefix prunes its subtree, and at a leaf each item's last two
    entries are its exact image in the 2-D quotient by span(P), times the
    pivot before the last: the leaf skips Bareiss's last exact division,
    since a common factor moves no line and no side count.  The
    hyperplanes through span(P) are the lines of that image, and P + (j)
    is the first spanning subset of one exactly when it is the greedy basis
    of the items on it: j > max(P) is the smallest index on the line, and
    every earlier item in span(P) lies in the span of the prefix items
    before it (if one does not, a smaller prefix spans every hyperplane of
    the pencil first).  Distinct live ``fresh`` labels bisect every leaf's
    sorted pencil (``_half_turn_counts``, O(n log n)); with repeated ones, a
    leaf with c <= n.bit_length() items after max(P) takes ``_direct_sides``
    (O(c * n)), and any other leaf one sorted window (``_window_counts``).
    """
    k = len(coords[0])
    if k == 1:
        sides = [
            {f for (x,), f in zip(coords, fresh) if f is not None and x * sign > 0}
            for sign in (1, -1)
        ]
        yield (), (len(sides[0]), len(sides[1])), None
        return
    n = len(coords)
    live = [f for f in fresh if f is not None]
    if len(set(live)) == len(live):  # distinct labels: bisection at every leaf
        few = many = _half_turn_counts
    else:  # repeated: c <= log2(n) new items take c cross-product rows, not a window
        few, many = _direct_sides, _window_counts
    top = k - 2  # prefix items above a leaf
    # levels[s] holds every item's row reduced against the first s prefix
    # items, over the columns that are not pivots yet.
    levels: list[Sequence[Sequence[int]]] = [coords] * (top + 1)
    chosen = [0] * top

    def prefixes(level: int, start: int, prev: int):
        """Every independent prefix of length ``top`` below the given node,
        each time with the walk's state set; ``prev`` is the node's last
        pivot (1 at the root), which Bareiss divides by."""
        if level == top:
            yield
            return
        for i in range(start, n - (top - level)):
            pivot_row = levels[level][i]
            q = next((t for t, x in enumerate(pivot_row) if x), None)
            if q is None:
                continue  # dependent prefix: every extension is dependent
            p = pivot_row[q]
            keep = [t for t in range(len(pivot_row)) if t != q]
            row = [pivot_row[t] for t in keep]
            chosen[level] = i
            if level + 1 < top:
                # Column by column, then transposed: there are more items
                # than columns, so this takes fewer comprehensions.
                levels[level + 1] = list(zip(*[
                    [(p * v[t] - v[q] * b) // prev for v in levels[level]]
                    for t, b in zip(keep, row)
                ]))
            else:  # a leaf keeps only the two quotient coordinates, undivided
                (u, bu), (w, bw) = zip(keep, row)
                levels[top] = [
                    (p * v[u] - v[q] * bu, p * v[w] - v[q] * bw)
                    for v in levels[level]
                ]
            yield from prefixes(level + 1, i + 1, p)

    for _ in prefixes(0, 0, 1):
        last = chosen[-1] if top else -1
        images = levels[top]
        if top and images[:last].count((0, 0)) >= top and any(
            chosen[s := bisect_left(chosen, h)] != h and any(levels[s][h])
            for h in range(last) if images[h] == (0, 0)
        ):
            continue  # P is not the greedy basis of the items in span(P)
        sides = few if n - 1 - last <= n.bit_length() else many
        prefix = tuple(chosen)
        for j, pos, neg in sides(images, fresh, last):
            yield prefix + (j,), (pos, neg), images


def _direct_sides(images: Sequence[IntVec], fresh: Sequence[int | None], last: int):
    """(j, pos, neg) per line of the pencil whose first item j is after
    ``last``, in index order: the numbers of distinct ``fresh`` labels w with
    det(image j, image w) > 0 and < 0, from one row of cross products per j."""
    out = []
    for j in range(last + 1, len(images)):
        a, b = images[j]
        if a or b:
            dets = [a * y - b * x for x, y in images[:j]]
            # Every zero image has det 0; any other zero is an item on j's line.
            if dets.count(0) == images[:j].count((0, 0)):
                dets += [a * y - b * x for x, y in images[j:]]
                pos = {f for d, f in zip(dets, fresh) if d > 0}
                neg = {f for d, f in zip(dets, fresh) if d < 0}
                out.append((j, len(pos) - (None in pos), len(neg) - (None in neg)))
    return out


def _line_keys(images: Sequence[IntVec]) -> list[float]:
    """Per nonzero image (x, y), its line's angle as a sort key: -inf at y = 0,
    else floor(-x * s / y) with s = 1 + max y^2.  Distinct slopes differ by
    at least 1 / |y1 * y2| > 1 / s, so distinct lines get distinct integer
    keys, and every multiple of an image, negative or not, shares its key."""
    s = 1 + max(y * y for _, y in images)
    return [-x * s // y if y else -inf for x, y in images]


def _window_counts(images: Sequence[IntVec], fresh: Sequence[int | None], last: int):
    """``_direct_sides`` from one sweep of the pencil, with a count per
    label: O(M log M) for M items, against O(c * M) for c items after
    ``last``, so the walk sweeps only when c exceeds log2 M.  With the L
    lines in ``_line_keys`` order, the full turn is their upper rays (y > 0,
    or y = 0 and x > 0) and then their lower rays, so the antipode of
    direction t is t + L.  One window holds the directions t + 1 .. t + L - 1:
    at an upper ray it is the counterclockwise side, and at the antipode the
    clockwise one, and a line's first item is on one of the two."""
    groups: dict[float, LineGroup] = {}
    for h, ((x, y), key, label) in enumerate(zip(images, _line_keys(images), fresh)):
        if x or y:
            upper = y > 0 or (y == 0 and x > 0)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (h, upper, [], [])
            if label is not None:
                group[2 if upper else 3].append(label)
    lines = sorted(groups)
    half = len(lines)
    turn = [groups[line][2] for line in lines] + [groups[line][3] for line in lines]
    count: defaultdict[int, int] = defaultdict(int)
    distinct = 0
    window = []
    for t in range(1 - half, 2 * half):
        for label in turn[t - half - 1]:  # direction t + half - 1 (mod 2 * half) enters
            distinct += not count[label]
            count[label] += 1
        if t >= 0:
            for label in turn[t]:  # direction t leaves
                count[label] -= 1
                distinct -= not count[label]
            window.append(distinct)
    sides = {line: window[i::half] for i, line in enumerate(lines)}
    # groups runs in index order of first items, as the subset walk does.
    return [
        (j, *sides[key][:: 1 if up else -1])
        for key, (j, up, _, _) in groups.items() if j > last
    ]


def _half_turn_counts(images: Sequence[IntVec], fresh: Sequence[int | None], last: int):
    """``_window_counts`` when the live labels are all distinct: a side then
    holds the live items of an open half-turn, which are, from the ray of
    key κ, the keys after κ on that ray's half and those before κ on the other."""
    first: dict[float, tuple[int, bool]] = {}  # per line key: its first item
    up: list[float] = []  # the live items' keys, per half
    low: list[float] = []
    for h, ((x, y), key, label) in enumerate(zip(images, _line_keys(images), fresh)):
        if x or y:
            upper = y > 0 or (y == 0 and x > 0)
            first.setdefault(key, (h, upper))
            if label is not None:
                (up if upper else low).append(key)
    up.sort()
    low.sort()
    out = []
    for key, (j, upper) in first.items():
        if j > last:
            a, b = (up, low) if upper else (low, up)  # j's own half first
            out.append((j, len(a) - bisect_right(a, key) + bisect_left(b, key),
                        len(b) - bisect_right(b, key) + bisect_left(a, key)))
    return out


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
        raise ValueError(f"blocks do not cover point indices {reprlib.repr(missing)}")
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
