"""Numerical toolkit for Blaschke products and their paths in the unit disk."""

from .blaschke import (
    SingularShiftSpec,
    ZeroList,
    blaschke_condition_sum,
    bloch_cnbp_tension,
    derivative,
    eval_boundary,
    evaluate,
    floating_factorization,
    jensen_zero_count,
    little_bloch_seminorm,
    singular_shift_zeros,
)
from .carleson import (
    AlphaEstimate,
    CarlesonBox,
    DiscreteMeasure,
    alpha_b,
    box_carleson_norm,
    interpolation_constant,
    mu_b,
    separation_split,
)
from .cauchy import (
    PathMeasure,
    cauchy_on_circle,
    cauchy_segment_closed_form,
    gamma_constant,
    l2_truncation_convergence,
    maximal_cauchy,
    outer_correction,
    truncated_cauchy,
    verify_intwin,
)
from .config import RunConfig
from .contours import (
    HarmonicMeasureAtlas,
    JordanCurveApprox,
    arclength_carleson_norm,
    build_atlas,
    harmonic_measure,
    level_set_components,
    log_quotient_via_contour,
    place_representatives,
    split_zeros_by_contour,
    trossos_check,
)
from .geometry import DiskPoint, hyper_distance, mobius, normalized_mobius, pseudo_distance
from .gridfn import BoundaryGridFunction, bmo_norm_estimate, harmonic_conjugate, l2_norm
from .matching import Pairing, bottleneck_match, pairing_diagnostics
from .pathbuild import (
    PolygonalPath,
    build_path,
    certify_path,
    choose_partition,
    interpolate_zeros,
    rouche_zero_count,
)

__version__ = "0.1.0"
