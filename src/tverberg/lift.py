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

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection

from .geometry import PointConfig
from .linalg import Vector
from .lp import ConvexWitness
from .partition import Partition

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CompanionBasis:
    """The r companion vectors in R^(r-1), indexed by part position."""

    r: int
    vectors: tuple[Vector, ...]


@dataclass(frozen=True)
class LiftedChoice:
    """Lifted points of a partition; lifted point j lifts source point j."""

    source: PointConfig
    lifted_points: tuple[Vector, ...]
    basis: CompanionBasis

    def config(self) -> PointConfig:
        lifted_dim = (self.source.dim + 1) * (self.basis.r - 1)
        return PointConfig(dim=lifted_dim, points=self.lifted_points)


def companion_basis(r: int) -> CompanionBasis:
    """Companion vectors e_1, ..., e_(r-1), -(e_1 + ... + e_(r-1))."""
    if r < 2:
        raise ValueError("need at least two parts")
    vectors = [
        tuple(_ONE if t == j else _ZERO for t in range(r - 1)) for j in range(r - 1)
    ]
    vectors.append(tuple(-_ONE for _ in range(r - 1)))
    return CompanionBasis(r=r, vectors=tuple(vectors))


def lift_point(a: Vector, u: Vector) -> Vector:
    """Flattened outer product of (a, 1) with u, row-major over (a, 1)."""
    b = tuple(a) + (_ONE,)
    return tuple(bt * us for bt in b for us in u)


def lift_partition(cfg: PointConfig, p: Partition) -> LiftedChoice:
    """Lift every point onto the companion vector of its part."""
    basis = _basis_for(cfg, p)
    lifted = tuple(
        lift_point(point, basis.vectors[label - 1])
        for point, label in zip(cfg.points, p.labels)
    )
    return LiftedChoice(source=cfg, lifted_points=lifted, basis=basis)


def _basis_for(cfg: PointConfig, p: Partition) -> CompanionBasis:
    if len(p.labels) != len(cfg.points):
        raise ValueError("partition labels must align with the points")
    return companion_basis(p.r)


def recover_common_point(
    cfg: PointConfig,
    p: Partition,
    removal: Collection[int],
    lifted_witness: ConvexWitness,
) -> tuple[Vector, dict[int, list[tuple[int, Fraction]]]]:
    """Common point of the parts' hulls after a removal, from a lifted witness.

    The witness must be convex coefficients for the origin over the lifted
    points that survive the removal, indexed as in ``lift_partition(cfg, p)``.
    It is re-substituted exactly in source space, without lifting: the
    weights place the origin in the lifted hull exactly when they are
    nonnegative, sum to one and give every part the same weighted sum of
    (a, 1), since the companion vectors' only dependence is the all-equal
    one.  A removal that empties a part can carry no valid witness, and any
    inconsistency raises ValueError.

    Returns the common point together with, per part id, the rescaled
    convex coefficients on surviving source points that realize it.
    """
    _basis_for(cfg, p)  # the lift's own input checks
    removed = set(removal)
    weights = dict(lifted_witness.coefficients)

    # Per part, the weighted sum of (a, 1); its last coordinate is the
    # part's weight mass.
    part_ids = range(1, p.r + 1)
    sums: dict[int, list[Fraction]] = {j: [_ZERO] * (cfg.dim + 1) for j in part_ids}
    for j, w in weights.items():
        if not 0 <= j < len(cfg.points):
            raise ValueError(f"witness refers to unknown lifted point {j}")
        if w < 0:
            raise ValueError("witness fails re-substitution: negative weight")
        if w and j in removed:
            raise ValueError("witness puts weight on a removed point")
        part = sums[p.labels[j]]
        for t, x in enumerate((*cfg.points[j], _ONE)):
            part[t] += w * x
    reference = sums[1]
    mass = reference[cfg.dim]
    # Equal part sums, and a total weight of one: r equal masses of 1/r.
    if any(sums[j] != reference for j in part_ids) or mass * p.r != 1:
        raise ValueError("witness fails re-substitution")
    point = tuple(x / mass for x in reference[: cfg.dim])

    per_part: dict[int, list[tuple[int, Fraction]]] = {j: [] for j in part_ids}
    for j, w in sorted(weights.items()):
        if w:
            per_part[p.labels[j]].append((j, w / mass))
    return point, per_part
