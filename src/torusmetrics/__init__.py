"""Thurston and Teichmuller metrics on two exactly computable model spaces.

The flat torus (module ``torus``) and the once-punctured torus (module
``ptorus``) are the two Teichmuller spaces where lengths of every simple
closed curve have closed forms, so the sup-ratio distance formulas, the
Finsler norms they induce and the convex dual bodies of those norms can be
computed and cross-checked against exact oracles.  Module ``farey``
organizes the curves, ``supratio`` maximizes functionals over all of them
with optional certification, and ``cli`` exposes the lot as commands.
"""

from .errors import InvalidPointError, OutOfChartError
from .farey import Slope, enumerate_slopes, intersection_number, mediant
from .supratio import SupQuery, SupRatioResult, maximize
from .torus import (
    Covector,
    QuadDiff,
    TangentVector,
    TorusPoint,
    WeightedFoliation,
    d_extremal,
    dual_sphere,
    dual_sphere_with_directions,
    extremal_length,
    gardiner_pairing,
    normalized_extremal_functional,
    quad_diff_of_foliation,
    teich_distance_enum,
    teich_distance_oracle,
    teich_norm,
)
from .ptorus import (
    MarkovPoint,
    PTCovector,
    PTTangent,
    TraceCache,
    WeightedLamination,
    d_length,
    dehn_twist,
    from_parameters,
    length,
    normalized_length_functional,
    tangent_from_chart,
    thurston_distance,
    thurston_norm,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidPointError",
    "OutOfChartError",
    "Slope",
    "mediant",
    "intersection_number",
    "enumerate_slopes",
    "SupQuery",
    "SupRatioResult",
    "maximize",
    "TorusPoint",
    "WeightedFoliation",
    "TangentVector",
    "QuadDiff",
    "Covector",
    "extremal_length",
    "d_extremal",
    "quad_diff_of_foliation",
    "gardiner_pairing",
    "teich_distance_oracle",
    "teich_distance_enum",
    "teich_norm",
    "dual_sphere",
    "dual_sphere_with_directions",
    "normalized_extremal_functional",
    "MarkovPoint",
    "TraceCache",
    "PTTangent",
    "PTCovector",
    "WeightedLamination",
    "from_parameters",
    "length",
    "d_length",
    "tangent_from_chart",
    "thurston_distance",
    "thurston_norm",
    "dehn_twist",
    "normalized_length_functional",
]
