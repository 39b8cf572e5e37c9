"""Tolerant Tverberg partitions with exact certificates.

Exact rational geometry (hull membership, half-space depth), the
companion-vector lift identifying a partition's tolerance with an
origin depth, closed-form guarantees for random partitions, and seeded
randomized search that returns certified results.
"""

from .bounds import (
    carath_depth_bound,
    carath_guaranteed_depth,
    colored_tolerance_from_n,
    derangements,
    fixed_point_probability,
    n_for_probability,
    n_for_tolerance,
    reay_tolerance_from_m,
    sign_tolerance_from_n,
    tolerance_from_n,
)
from .depth import DepthCertificate, block_depth, depth
from .engine import (
    certified_colored_partition,
    certified_partition,
    certified_reay_partition,
    random_block_choice,
    random_partition,
    sign_assignment,
)
from .gen import colored_classes, grid_points, line_points, uniform_ball
from .geometry import (
    HalfSpace,
    PointConfig,
    config_from_json,
    config_to_json,
    load_config,
    load_csv,
    make_config,
)
from .lift import lift_partition, recover_common_point
from .lp import hulls_intersect, origin_in_hull
from .partition import Partition
from .verify import (
    BudgetExceeded,
    ReayReport,
    ToleranceReport,
    colored_tolerance,
    depth_oracle,
    reay_tolerance,
    tolerance_by_lifted_depth,
    tolerance_exhaustive,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DepthCertificate",
    "HalfSpace",
    "Partition",
    "PointConfig",
    "ReayReport",
    "ToleranceReport",
    "block_depth",
    "carath_depth_bound",
    "carath_guaranteed_depth",
    "certified_colored_partition",
    "certified_partition",
    "certified_reay_partition",
    "colored_classes",
    "colored_tolerance",
    "colored_tolerance_from_n",
    "config_from_json",
    "config_to_json",
    "depth",
    "depth_oracle",
    "derangements",
    "fixed_point_probability",
    "grid_points",
    "hulls_intersect",
    "lift_partition",
    "line_points",
    "load_config",
    "load_csv",
    "make_config",
    "n_for_probability",
    "n_for_tolerance",
    "origin_in_hull",
    "random_block_choice",
    "random_partition",
    "reay_tolerance",
    "reay_tolerance_from_m",
    "recover_common_point",
    "sign_assignment",
    "sign_tolerance_from_n",
    "tolerance_by_lifted_depth",
    "tolerance_exhaustive",
    "tolerance_from_n",
    "uniform_ball",
]
