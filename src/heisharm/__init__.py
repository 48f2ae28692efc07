"""Radial harmonic analysis on the Heisenberg group H^n.

The package computes the group Fourier transform of radial functions
through Laguerre expansions, applies spectral multipliers of the
sublaplacian, builds compactly supported functions whose transform decays
at a certified rate prescribed by a profile Theta, and probes the
norm-growth sequence ||L^m f||_2 that controls quasi-analytic behavior.

Numerical claims are certified rather than assumed: envelope and bound
constants are frozen by calibration runs into JSON fixtures, every
certified check recomputes its inequality on a declared grid, and reports
are byte-identical across repeated runs.
"""

from .errors import (
    DimensionMismatchError,
    DomainError,
    GridMismatchError,
    HeisharmError,
    HypothesisError,
    ProfileClassError,
    QuadratureError,
    TailError,
)
from .group import (
    HeisenbergCoords,
    HeisenbergPoint,
    Rotation,
    dilate,
    distance,
    from_heisenberg_coords,
    identity,
    inverse,
    koranyi_norm,
    lift_theta_independent,
    multiply,
    to_heisenberg_coords,
)
from .laguerre import (
    EnvelopeRegion,
    bound_envelope,
    breakpoints,
    envelope_values,
    laguerre_norm_constant,
    laguerre_poly,
    normalized_laguerre_table,
    nu,
    orthonormality_defect,
    std_laguerre_fn,
    std_laguerre_table,
)
from .grids import QuadratureGrid, radial_rule
from .theta import ThetaProfile, builtin_theta, load_theta, tail_integral_estimate
from .transform import (
    RadialFunction,
    SpectralCoefficients,
    apply_multiplier,
    ball_coefficients,
    ball_normalizer,
    box_coefficients,
    box_convolution_coefficients,
    box_convolution_grids,
    box_factor,
    box_pair_convolution,
    dilate_coeffs,
    direct_convolution_oracle,
    forward_radial,
    gaussian_coefficients,
    gaussian_factor,
    ground_state,
    load_coefficients,
    multiply_coeffs,
    plancherel_norm,
    projection_hs_norm_sq,
    save_coefficients,
    sobolev_norm,
    sublaplacian_symbol,
    transform_at_lambda,
)
from .fixtures import fixture_path, load_fixture, packaged_fixtures_dir
from .ingham import (
    TAU_GAUGE,
    InghamChain,
    SequencePlan,
    adaptive_N,
    ball_shift_symmdiff,
    ball_volume,
    build_chain,
    calibrate_cn,
    calibration_grid,
    cauchy_gap,
    chain_coeff,
    chain_coefficients,
    factor_bound_check,
    factor_coeff,
    factor_coeff_envelope,
    factor_coeff_table,
    factor_t_hat,
    plan_sequences,
    sphere_surface,
    support_radius,
    verify_decay,
)
from .chernoff import (
    NormGrowthProfile,
    carleman_partial_sums,
    check_gamma_hypothesis,
    gamma_bound_log,
    gamma_integral_log,
    ingham_norm_bound_check,
    inverse_square_sum,
    log_convexity_margin,
    sequence_transfer_check,
    sublaplacian_norms,
)

__version__ = "0.1.0"

# calibrate is imported on first use of one of its names (PEP 562): an eager
# import here would put heisharm.calibrate in sys.modules before
# ``python -m heisharm.calibrate`` runs it as __main__, so runpy would warn
# and the module body would run twice
_CALIBRATE_NAMES = frozenset({
    "envelope_radii", "calibrate_envelope", "envelope_check",
    "calibrate_factor_bound", "calibrate_chain_gap",
})


def __getattr__(name):
    if name in _CALIBRATE_NAMES:
        from . import calibrate
        return getattr(calibrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "HeisharmError", "DimensionMismatchError", "DomainError",
    "GridMismatchError", "QuadratureError", "ProfileClassError",
    "HypothesisError", "TailError",
    "HeisenbergPoint", "HeisenbergCoords", "Rotation", "identity", "multiply",
    "inverse", "koranyi_norm", "distance", "dilate", "to_heisenberg_coords",
    "from_heisenberg_coords", "lift_theta_independent",
    "laguerre_poly", "std_laguerre_fn", "std_laguerre_table",
    "normalized_laguerre_table",
    "laguerre_norm_constant", "nu", "breakpoints", "EnvelopeRegion",
    "bound_envelope", "envelope_values", "orthonormality_defect",
    "QuadratureGrid", "radial_rule",
    "ThetaProfile", "builtin_theta", "load_theta", "tail_integral_estimate",
    "RadialFunction", "SpectralCoefficients", "box_factor", "box_coefficients",
    "gaussian_factor", "gaussian_coefficients", "ground_state",
    "ball_normalizer", "ball_coefficients",
    "projection_hs_norm_sq",
    "forward_radial", "transform_at_lambda", "plancherel_norm", "sobolev_norm",
    "apply_multiplier", "sublaplacian_symbol", "multiply_coeffs",
    "dilate_coeffs", "box_pair_convolution", "direct_convolution_oracle",
    "box_convolution_grids", "box_convolution_coefficients",
    "save_coefficients", "load_coefficients",
    "packaged_fixtures_dir", "fixture_path", "load_fixture",
    "envelope_radii", "calibrate_envelope", "envelope_check",
    "calibrate_factor_bound", "calibrate_chain_gap",
    "SequencePlan", "InghamChain", "plan_sequences", "factor_t_hat",
    "factor_coeff", "factor_coeff_table", "factor_coeff_envelope",
    "calibrate_cn", "calibration_grid", "factor_bound_check", "adaptive_N",
    "chain_coeff", "chain_coefficients", "build_chain", "verify_decay",
    "support_radius", "ball_volume", "sphere_surface", "ball_shift_symmdiff",
    "cauchy_gap", "TAU_GAUGE",
    "NormGrowthProfile", "sublaplacian_norms", "carleman_partial_sums",
    "log_convexity_margin", "gamma_integral_log", "gamma_bound_log",
    "check_gamma_hypothesis", "ingham_norm_bound_check", "inverse_square_sum",
    "sequence_transfer_check",
    "__version__",
]
