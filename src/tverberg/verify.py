"""Tolerance verification for labeled point configurations.

Two independent routes are provided, each written once.  The lifted
route (``_lifted_report``) computes the tolerance of a partition as the
half-space depth of the origin in the companion-vector lift, minus one;
its witness is the half-space certificate pulled back to removal units:
lifted point j lifts point j, so the units of the certificate's ``inside``
points, from depth's one exact side test, form the removal set.
The exhaustive route (``_removal_scan``) tries every set of removal
units of increasing size against the hull-intersection oracle and is
the ground truth the lifted route is tested against; a set that misses
the support of a common point it has already found is settled without
a query, since that point survives the removal.  A unit is a point,
or a whole color class in the colored form; the k-of-r form is the plain
tolerance of each k-part sub-partition.  The same scan serves
``depth_oracle``: the query point is one more part, in no unit.
A scan's budget counts the removal sets it walks, skipped ones included,
and the scan raises ``BudgetExceeded`` before a size that would overrun it;
``check_budget`` refuses a budget below one.  Given ``at_least``, a function
returns None for a tolerance below it; the lifted route then stops early.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .depth import DepthCertificate, block_depth, depth
from .geometry import PointConfig
from .lift import lift_partition, recover_common_point
from .linalg import Vector, scalar_to_str
from .lp import hulls_intersect, origin_in_hull
from .partition import Partition

LIFTED = "lifted-depth"
EXHAUSTIVE = "exhaustive-oracle"

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """An exhaustive scan would walk more removal sets than its budget;
    ``required`` is a lower bound on the sets it would walk."""

    def __init__(self, required: int, budget: int, context: str) -> None:
        super().__init__(
            f"{context}: needs at least {required} removal sets, budget is {budget}"
        )
        self.required = required
        self.budget = budget


def check_budget(budget: Optional[int], name: str = "budget") -> int:
    """The budget, DEFAULT_BUDGET for None; a budget below one is refused."""
    if budget is not None and budget < 1:
        raise ValueError(f"{name} must be positive")
    return DEFAULT_BUDGET if budget is None else budget


@dataclass(frozen=True)
class ToleranceReport:
    """Outcome of one tolerance computation.

    tolerance is -1 when the hulls do not even intersect before any
    removal.  witness_removal is a removal set of size tolerance + 1
    that breaks the intersection (sorted point indices, or sorted
    color ids when unit == "classes"); it is None only when the
    exhaustive scan was capped before finding a breaking set.
    """

    tolerance: int
    method: str
    unit: str
    witness_removal: Optional[Tuple[int, ...]]
    common_point: Optional[Vector]
    certificate: Optional[DepthCertificate]

    def to_json(self) -> dict:
        out: dict = {
            "tolerance": self.tolerance,
            "method": self.method,
            "unit": self.unit,
            "witness_removal": (
                list(self.witness_removal)
                if self.witness_removal is not None
                else None
            ),
            "common_point": (
                [scalar_to_str(x) for x in self.common_point]
                if self.common_point is not None
                else None
            ),
        }
        if self.certificate is not None:
            out["depth"] = self.certificate.depth
            out["witness_halfspace"] = self.certificate.witness.to_json()
        return out


def _lifted_report(
    cfg: PointConfig,
    p: Partition,
    classes: Optional[Dict[int, List[int]]] = None,
    at_least: Optional[int] = None,
) -> Optional[ToleranceReport]:
    """The lifted route, as tolerance_by_lifted_depth describes it; with
    ``classes`` (color ids to their points) the unit is a color class, and
    the lifted points of a class form one block of a block-depth computation.
    """
    lifted_cfg = lift_partition(cfg, p)
    origin = (0,) * lifted_cfg.dim
    bound = None if at_least is None else at_least + 1
    if classes is None:
        cert = depth(lifted_cfg, origin, bound)
        removal = cert.inside
    else:
        blocks = [classes[c] for c in sorted(classes)]
        cert = block_depth(lifted_cfg, blocks, origin, bound)
        removal = tuple(sorted({cfg.colors[j] for j in cert.inside}))
    if len(removal) != cert.depth:
        raise AssertionError("lifted witness does not match certified depth")
    if bound is not None and cert.depth < bound:
        return None
    common = None
    if cert.depth >= 1:
        witness = origin_in_hull(lifted_cfg)
        if witness is None:
            raise AssertionError("positive depth but origin not in lifted hull")
        common = recover_common_point(cfg, p, witness)
    return ToleranceReport(
        tolerance=cert.depth - 1,
        method=LIFTED,
        unit="points" if classes is None else "classes",
        witness_removal=removal,
        common_point=common,
        certificate=cert,
    )


def _removal_scan(
    cfg: PointConfig,
    parts: Sequence[Sequence[int]],
    classes: Optional[Dict[int, List[int]]] = None,
    t_cap: Optional[int] = None,
    budget: Optional[int] = None,
    spent: int = 0,
    scan: str = "removal scan",
) -> Tuple[ToleranceReport, int]:
    """The exhaustive route, as tolerance_exhaustive describes it, over
    units: points, or color classes when ``classes`` maps color ids to
    their points.  A point in no unit is never removed.  The budget is
    charged on top of ``spent``; returns the report and the new amount
    spent.
    """
    budget = check_budget(budget)
    units = {i: [i] for i in range(len(cfg.points))} if classes is None else classes
    # Sets of units are bitmasks: bit b stands for the b-th unit in
    # sorted order, and bit_of maps a point to its unit's bit.
    ordered = sorted(units)
    bits = [1 << b for b in range(len(ordered))]
    bit_of = {i: bits[b] for b, u in enumerate(ordered) for i in units[u]}
    if t_cap is not None and t_cap < 0:
        raise ValueError("t_cap must be nonnegative")

    # A removal that misses the support of a witness already found leaves
    # that witness a common point, so it is skipped without an LP.
    supports: List[int] = []

    common: Optional[Vector] = None
    # The scan stops at its first breaking size; removing every unit empties a part.
    tolerance, witness = t_cap, None
    for s in range(len(units) + 1 if t_cap is None else t_cap + 2):
        level = comb(len(units), s)
        if spent + level > budget:
            raise BudgetExceeded(
                required=spent + level,
                budget=budget,
                context=f"{scan} at size {s} has {level} more removal sets",
            )
        spent += level
        for removal, mask in zip(
            combinations(ordered, s), map(sum, combinations(bits, s))
        ):
            if any(not mask & support for support in supports):
                continue
            gone = {i for u in removal for i in units[u]}
            survivors = [[i for i in part if i not in gone] for part in parts]
            result = hulls_intersect(cfg, survivors)
            if result is None:
                break
            if s == 0:
                common = result[0]
            support = {bit_of.get(i, 0) for i, w in result[1] if w}
            supports.append(sum(support))
        else:
            continue
        tolerance, witness = s - 1, removal
        break
    else:
        if t_cap is None:
            raise AssertionError("scan removed every unit without breaking")
    report = ToleranceReport(
        tolerance=tolerance,
        method=EXHAUSTIVE,
        unit="points" if classes is None else "classes",
        witness_removal=witness,
        common_point=common,
        certificate=None,
    )
    return report, spent


def depth_oracle(cfg: PointConfig, c: Vector, budget: Optional[int] = None) -> int:
    """Depth recomputed independently: the smallest number of points whose
    removal pulls c out of the convex hull of the rest.

    This is the removal scan with c as one more, fixed part that no removal
    unit meets: the hull of the points meets {c} exactly when it holds c.
    A removal that misses the support of a hull witness found earlier
    leaves c in the hull, so it is skipped without an LP; every other
    removal costs one LP feasibility call, under the scan's budget.
    """
    if len(c) != cfg.dim:
        raise ValueError("query point dimension does not match the configuration")
    n = len(cfg.points)
    with_c = PointConfig(dim=cfg.dim, points=(*cfg.points, tuple(map(Fraction, c))))
    units = {i: [i] for i in range(n)}
    report, _ = _removal_scan(
        with_c, [range(n), [n]], units, budget=budget, scan="depth_oracle"
    )
    return report.tolerance + 1


def tolerance_by_lifted_depth(
    cfg: PointConfig, p: Partition, at_least: Optional[int] = None
) -> Optional[ToleranceReport]:
    """Tolerance of the partition via origin depth in the lifted configuration.

    The witness removal is the set of source points whose lifted image
    lies in the depth certificate's half-space; removing them destroys
    every common point of the part hulls.  A tolerance below ``at_least``
    returns None; any other report is the same as without it.
    """
    return _lifted_report(cfg, p, at_least=at_least)


def tolerance_exhaustive(
    cfg: PointConfig,
    p: Partition,
    t_cap: Optional[int] = None,
    budget: Optional[int] = None,
) -> ToleranceReport:
    """Tolerance by trying every removal set in increasing size.

    Removal sets are scanned in size order, lexicographically within a
    size, so the reported witness is canonical.  Without a cap the scan
    runs to the smallest part size, where a breaking set is guaranteed,
    so the result is exact; with t_cap the scan stops after size
    t_cap + 1 and may return t_cap with witness_removal None.

    A removal set that misses the support (the points of nonzero weight)
    of a common point found earlier leaves that point in every hull, so
    it is skipped without a query; the budget still charges it.
    """
    p.check(cfg)
    return _removal_scan(cfg, p.parts(), t_cap=t_cap, budget=budget)[0]


def colored_tolerance(
    cfg: PointConfig,
    p: Partition,
    method: str = LIFTED,
    t_cap: Optional[int] = None,
    budget: Optional[int] = None,
    at_least: Optional[int] = None,
) -> Optional[ToleranceReport]:
    """Class-removal tolerance of a rainbow partition.

    Each color class must have exactly one point in every part.  The
    unit of removal is a whole color class; tolerance t means the part
    hulls still intersect after deleting the points of any t classes.
    """
    p.check(cfg)
    size = cfg.class_size()
    if size != p.r:
        raise ValueError(f"color classes have {size} points, expected {p.r}")
    classes = cfg.color_classes()
    for color, members in classes.items():
        if len({p.labels[i] for i in members}) != p.r:
            raise ValueError(f"color class {color} is not spread over all parts")
    if method == LIFTED:
        for name, knob in (("t_cap", t_cap), ("budget", budget)):
            if knob is not None:
                raise ValueError(f"{name} applies to the exhaustive method only")
        return _lifted_report(cfg, p, classes, at_least)
    if method != EXHAUSTIVE:
        raise ValueError(f"unknown method {method!r}")
    report, _ = _removal_scan(
        cfg, p.parts(), classes, t_cap, budget, scan="class-removal scan"
    )
    return None if at_least is not None and report.tolerance < at_least else report


@dataclass(frozen=True)
class ReayReport:
    """Minimum tolerance over all k-subsets of parts, with per-subset detail."""

    tolerance: int
    k: int
    tuples: Tuple[Tuple[Tuple[int, ...], ToleranceReport], ...]

    def to_json(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "k": self.k,
            "tuples": [
                {"parts": list(parts), **report.to_json()}
                for parts, report in self.tuples
            ],
        }


def reay_tolerance(
    cfg: PointConfig,
    p: Partition,
    k: int,
    method: str = LIFTED,
    budget: Optional[int] = None,
    at_least: Optional[int] = None,
) -> Optional[ReayReport]:
    """Largest t such that every k of the r part hulls share a point after
    any removal of at most t points.

    Computed as the minimum of the plain tolerance over all C(r, k)
    part subsets, each taken on the sub-configuration of its parts'
    points (removing other points cannot affect it) with the parts
    relabelled 1..k in order; witnesses are mapped back to the original
    indices.  The exhaustive scans share one budget.  With ``at_least``,
    the first part subset whose tolerance is below it returns None.
    """
    p.check(cfg)
    if not 2 <= k <= p.r:
        raise ValueError("k must lie in 2..r")
    if method not in (LIFTED, EXHAUSTIVE):
        raise ValueError(f"unknown method {method!r}")
    if method == LIFTED and budget is not None:
        raise ValueError("budget applies to the exhaustive method only")

    spent = 0
    results: List[Tuple[Tuple[int, ...], ToleranceReport]] = []
    for chosen in combinations(range(1, p.r + 1), k):
        members = [i for i, label in enumerate(p.labels) if label in chosen]
        sub_cfg = PointConfig(cfg.dim, tuple(cfg.points[i] for i in members))
        sub_p = Partition(k, tuple(chosen.index(p.labels[i]) + 1 for i in members))
        if method == EXHAUSTIVE:
            report, spent = _removal_scan(
                sub_cfg,
                sub_p.parts(),
                budget=budget,
                spent=spent,
                scan=f"removal scan for parts {chosen}",
            )
        elif members:
            report = _lifted_report(sub_cfg, sub_p, at_least=at_least)
        else:  # nothing to lift: empty hulls never meet
            report = ToleranceReport(-1, LIFTED, "points", (), None, None)
        if report is None or (at_least is not None and report.tolerance < at_least):
            return None
        removal = tuple(members[j] for j in report.witness_removal)
        results.append((chosen, replace(report, witness_removal=removal)))
    overall = min(report.tolerance for _, report in results)
    return ReayReport(tolerance=overall, k=k, tuples=tuple(results))
