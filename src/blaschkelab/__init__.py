"""Numerical toolkit for Blaschke products and their paths in the unit disk."""

from .blaschke import (
    SingularShiftSpec,
    ZeroList,
    derivative,
    eval_boundary,
    evaluate,
    floating_factorization,
    jensen_zero_count,
    singular_shift_zeros,
)
from .carleson import (
    AlphaEstimate,
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
    outer_correction,
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
    split_zeros_by_contour,
    trossos_check,
)
from .geometry import hyper_distance, mobius, pseudo_distance
from .gridfn import BoundaryGridFunction, harmonic_conjugate
from .matching import Pairing, bottleneck_match, pairing_diagnostics
from .pathbuild import PolygonalPath, build_path, certify_path, choose_partition

__version__ = "0.1.0"
