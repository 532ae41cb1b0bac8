"""Spectrum localization for complex matrices.

Builds the order-k curves that bound the spectrum from the k largest
eigenvalues of the Hermitian part, intersects their rotations into envelope
regions, computes the numerical range and rank numerical ranges, and emits
figures and machine-readable region data.
"""

from .linalg import (
    DimensionError,
    ParameterError,
    hermitian_part,
    largest_singular_value_sq,
    max_abs,
    skew_part,
)
from .frame import FrameStack, SpectralFrame, build_frame, build_frames, rotation_spectra, w_matrix
from .inequality import (
    crossing_condition,
    cubic_g1,
    explicit_g2,
    g_field,
    g2_constants,
    union_poly_value,
)
from .trace import (
    CurveSet,
    Window,
    auto_window,
    gamma_curves,
    hyperbola_set,
    point_in_polygon,
)
from .envelope import (
    RegionRaster,
    envelope_margins,
    envelope_member_mask,
    envelope_raster,
    membership_tolerance,
    numerical_range_boundary,
    rank_numrange_raster,
    theta_grid,
)
from .gallery import (
    GALLERY,
    MatrixSpec,
    build_matrix,
    diagonal_case_report,
    diagonal_gamma_prediction,
    epsilon_thresholds,
    gallery_entries,
    region_index,
    s_pm,
    simultaneous_merge_deltas,
    splitmix64_uniforms,
)
from .fileio import MatrixFileError, parse_matrix_file
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "ParameterError",
    "MatrixFileError",
    "SpectralFrame",
    "FrameStack",
    "Window",
    "CurveSet",
    "RegionRaster",
    "MatrixSpec",
    "GALLERY",
    "max_abs",
    "hermitian_part",
    "skew_part",
    "largest_singular_value_sq",
    "build_frame",
    "build_frames",
    "rotation_spectra",
    "w_matrix",
    "g_field",
    "cubic_g1",
    "explicit_g2",
    "g2_constants",
    "union_poly_value",
    "crossing_condition",
    "auto_window",
    "gamma_curves",
    "hyperbola_set",
    "point_in_polygon",
    "theta_grid",
    "membership_tolerance",
    "envelope_member_mask",
    "envelope_margins",
    "envelope_raster",
    "numerical_range_boundary",
    "rank_numrange_raster",
    "build_matrix",
    "gallery_entries",
    "splitmix64_uniforms",
    "epsilon_thresholds",
    "s_pm",
    "region_index",
    "simultaneous_merge_deltas",
    "diagonal_gamma_prediction",
    "diagonal_case_report",
    "parse_matrix_file",
    "main",
]
