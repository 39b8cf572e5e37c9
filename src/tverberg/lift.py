"""Tensor lift turning hull-intersection questions into origin-depth ones.

Each source point a in R^d is appended a 1 to give b = (a, 1) in R^(d+1).
Part j of a partition into r parts receives a companion vector u_j in
R^(r-1); the lifted point is the flattened outer product b (x) u_j, laid out
row-major over (b rows, u columns), so coordinates group by source
coordinate first.

The companion vectors are e_1, ..., e_(r-1), -(e_1 + ... + e_(r-1)): exact
integers whose only linear dependence is that all r of them sum to zero.
That single dependence is what makes the bridge work: convex weights on
lifted points sum to the zero vector exactly when the weighted (a, 1) sums
agree across all parts, and the shared appended-1 coordinate then rescales
every part's weights into convex coefficients for a common point.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import PointConfig
from .linalg import Vector
from .lp import ConvexWitness
from .partition import Partition

_ZERO = Fraction(0)
_ONE = Fraction(1)


def lift_partition(cfg: PointConfig, p: Partition) -> PointConfig:
    """Lift every point onto the companion vector of its part; lifted
    point j lifts source point j."""
    p.check(cfg, lift=True)
    r = p.r
    companions = [tuple(int(t == j) for t in range(r - 1)) for j in range(r - 1)]
    companions.append((-1,) * (r - 1))
    points = tuple(
        tuple(x * u for x in (*a, _ONE) for u in companions[label - 1])
        for a, label in zip(cfg.points, p.labels)
    )
    return PointConfig(dim=(cfg.dim + 1) * (r - 1), points=points)


def recover_common_point(
    cfg: PointConfig, p: Partition, lifted_witness: ConvexWitness
) -> Vector:
    """Common point of the parts' hulls from a lifted witness.

    The witness must be convex coefficients for the origin over the points
    of ``lift_partition(cfg, p)``.  It is re-substituted exactly in source
    space, without lifting: the weights place the origin in the lifted hull
    exactly when they are nonnegative, sum to one and give every part the
    same weighted sum of (a, 1), since the companion vectors' only
    dependence is the all-equal one.  Any inconsistency raises ValueError.
    """
    p.check(cfg, lift=True)
    # Per part, the weighted sum of (a, 1); its last coordinate is the
    # part's weight mass.
    part_ids = range(1, p.r + 1)
    sums: dict[int, list[Fraction]] = {j: [_ZERO] * (cfg.dim + 1) for j in part_ids}
    for j, w in dict(lifted_witness).items():
        if not 0 <= j < len(cfg.points):
            raise ValueError(f"witness refers to unknown lifted point {j}")
        if w < 0:
            raise ValueError("witness fails re-substitution: negative weight")
        part = sums[p.labels[j]]
        for t, x in enumerate((*cfg.points[j], _ONE)):
            part[t] += w * x
    reference = sums[1]
    mass = reference[cfg.dim]
    # Equal part sums, and a total weight of one: r equal masses of 1/r.
    if any(sums[j] != reference for j in part_ids) or mass * p.r != 1:
        raise ValueError("witness fails re-substitution")
    return tuple(x / mass for x in reference[: cfg.dim])
