"""Exact liftings of measure paths to random-variable paths.

Probability measures live on a finite metric space with rational
distances; random variables are labeled partitions of [0, 1) into
rational interval unions.  Every computation is exact: the Prokhorov
and Ky Fan metrics, optimal couplings and their realizations, segment
and polygonal liftings with prescribed endpoints, the iterative lifting
of Lipschitz measure paths, and multi-affine cube liftings, all with
certificates stating the verified identities and bounds as rationals.
"""

from .cube import CubeInterpolation, CubeLift, g_eval
from .errors import InvariantError, PreconditionError
from .lifting import (
    Certificate,
    LiftedPath,
    PolygonalPath,
    SampledPath,
    SegmentLift,
    approximate_polygonal,
    lift_path,
    lift_polygonal,
    relift_near,
    segment_lift,
    verify_lift,
)
from .prokhorov import (
    kyfan_functional,
    prokhorov,
    prokhorov_coupling,
    prokhorov_subsets,
)
from .randomvars import (
    SimpleRandomVariable,
    canonical_rv,
    joint_coupling,
    kyfan_rho,
    law,
    match_to_law,
    realize_coupling,
)
from .spaces import (
    CouplingMatrix,
    FiniteMetricSpace,
    Measure,
    dirac,
    mixture,
    validate_space,
)

__all__ = [
    "Certificate",
    "CouplingMatrix",
    "CubeInterpolation",
    "CubeLift",
    "FiniteMetricSpace",
    "InvariantError",
    "LiftedPath",
    "Measure",
    "PolygonalPath",
    "PreconditionError",
    "SampledPath",
    "SegmentLift",
    "SimpleRandomVariable",
    "approximate_polygonal",
    "canonical_rv",
    "dirac",
    "g_eval",
    "joint_coupling",
    "kyfan_functional",
    "kyfan_rho",
    "law",
    "lift_path",
    "lift_polygonal",
    "match_to_law",
    "mixture",
    "prokhorov",
    "prokhorov_coupling",
    "prokhorov_subsets",
    "realize_coupling",
    "relift_near",
    "segment_lift",
    "validate_space",
    "verify_lift",
]
