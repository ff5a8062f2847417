"""coneorder: exact polyhedral cone orders and order-isomorphism verification.

The library makes the order structure induced by a finitely generated cone
computable: membership and comparison are exact over rationals, extreme rays
are enumerated by double description, finite suprema and infima come with
certificates, engaged/disengaged ray classification drives the linearity
criteria, and a floating-point PSD backend mirrors the same constructions on
symmetric matrices under the Loewner order.
"""
from .cones import (
    PolyhedralCone,
    cone_from_facets,
    cone_from_generators,
    double_description,
    interval_cone,
    orthant,
    square_cone,
)
from .errors import ConeOrderError
from .iso import (
    AffineMap,
    IDENTITY_MAP,
    IsoReport,
    IsoSpec,
    MonotoneBijection,
    OddPowerMap,
    PiecewiseLinearMap,
    check_additivity,
    check_affine_on,
    check_order_iso_sampled,
    check_parallelogram,
    check_positively_homogeneous,
    compose_isos,
    eval_iso,
    extract_g_r,
    halfline_image_check,
    identity_iso,
    invert_iso,
    make_affine_iso,
    make_diagonal_iso,
    make_linear_iso,
    make_product_lift,
)
from .order import (
    ExtremeRayReport,
    HypothesisVerdict,
    InfSupExpr,
    SupResult,
    classify_engaged,
    disengaged_split,
    eval_infsup,
    extreme_halfline_check,
    hypothesis_check,
    inf_expr,
    infimum,
    infsup_linearity_check,
    interval_sample,
    is_totally_ordered,
    leaf,
    order_unit_norm,
    sup_expr,
    supremum,
)
from .psd import (
    PsdTolerance,
    SymMatrix,
    conjugation_iso,
    eigh_jacobi,
    engagement_witness,
    identity_sup_check,
    infsup_approx,
    psd_leq,
    rank_one_projection,
)

# No library code calls the exact simplex.  The package still loads it
# because perfbench/tracer.py rebinds coneorder.lp by looking it up among the
# loaded modules; the import goes when the benchmark retires those targets.
from . import lp  # noqa: F401

__all__ = [
    "AffineMap",
    "ConeOrderError",
    "ExtremeRayReport",
    "HypothesisVerdict",
    "IDENTITY_MAP",
    "InfSupExpr",
    "IsoReport",
    "IsoSpec",
    "MonotoneBijection",
    "OddPowerMap",
    "PiecewiseLinearMap",
    "PolyhedralCone",
    "PsdTolerance",
    "SupResult",
    "SymMatrix",
    "check_additivity",
    "check_affine_on",
    "check_order_iso_sampled",
    "check_parallelogram",
    "check_positively_homogeneous",
    "classify_engaged",
    "compose_isos",
    "cone_from_facets",
    "cone_from_generators",
    "conjugation_iso",
    "disengaged_split",
    "double_description",
    "eigh_jacobi",
    "engagement_witness",
    "eval_infsup",
    "eval_iso",
    "extract_g_r",
    "extreme_halfline_check",
    "halfline_image_check",
    "hypothesis_check",
    "identity_iso",
    "identity_sup_check",
    "inf_expr",
    "infimum",
    "infsup_approx",
    "infsup_linearity_check",
    "interval_cone",
    "interval_sample",
    "invert_iso",
    "is_totally_ordered",
    "leaf",
    "make_affine_iso",
    "make_diagonal_iso",
    "make_linear_iso",
    "make_product_lift",
    "order_unit_norm",
    "orthant",
    "psd_leq",
    "rank_one_projection",
    "square_cone",
    "sup_expr",
    "supremum",
]

__version__ = "0.1.0"
