"""Insensitizing controls for fourth-order semilinear parabolic problems.

The pipeline: build a validated problem (grid, subdomains, coefficients,
Carleman weights), solve the forward/adjoint cascade spectrally, minimize
the penalized HUM functional for a control supported on omega, and verify
the null condition q(0) = 0 together with the sentinel's tau-derivative.
A Picard loop around frozen linearizations extends the construction to
semilinear reaction terms.
"""

from .carleman_weights import (
    CarlemanWeights,
    EnvelopeReport,
    ObservabilityConstants,
    PropertyReport,
    WeightProfile,
    build_eta,
    build_weights,
    check_envelope_bounds,
    check_weight_properties,
    observability_constants,
)
from .cascade_sentinel import (
    AdjointPair,
    CascadeSolution,
    InsensitivityReport,
    linearized_operators,
    sentinel,
    sentinel_sensitivity,
    solve_adjoint_pair,
    solve_cascade,
)
from .config import (
    SCHEMA,
    apply_quick,
    default_config,
    parse_config,
    problem_from_config,
)
from .errors import (
    EngineError,
    Insens4Error,
    IterationError,
    SetupError,
    SynthesisError,
    WeightError,
)
from .hum_synthesis import (
    ControlResult,
    NullReport,
    RatioReport,
    eval_j,
    grad_j_smooth,
    minimize_exact,
    minimize_quadratic,
    observability_ratio_sample,
    verify_null,
)
from .nonlinearity import NonlinearitySpec, make_nonlinearity
from .pde_engine import (
    Schedule,
    Trajectory,
    duality_residual,
    make_schedule,
    solve_backward,
    solve_forward,
    solve_forward_nonlinear,
)
from .problem_setup import (
    CoefficientField,
    Grid,
    ProblemConfig,
    SubdomainMask,
    ValidatedProblem,
    build_grid,
    build_mask,
    validate_problem,
)
from .semilinear_loop import (
    FrozenLinearization,
    SemilinearResult,
    eval_g,
    freeze_linearization,
    ftc_residual,
    picard_insensitize,
)
from .spectral import SineBasis

__all__ = [
    "AdjointPair",
    "CarlemanWeights",
    "CascadeSolution",
    "CoefficientField",
    "ControlResult",
    "EngineError",
    "EnvelopeReport",
    "FrozenLinearization",
    "Grid",
    "Insens4Error",
    "InsensitivityReport",
    "IterationError",
    "NonlinearitySpec",
    "NullReport",
    "ObservabilityConstants",
    "ProblemConfig",
    "PropertyReport",
    "RatioReport",
    "SCHEMA",
    "Schedule",
    "SemilinearResult",
    "SetupError",
    "SineBasis",
    "SubdomainMask",
    "SynthesisError",
    "Trajectory",
    "ValidatedProblem",
    "WeightError",
    "WeightProfile",
    "apply_quick",
    "build_eta",
    "build_grid",
    "build_mask",
    "build_weights",
    "check_envelope_bounds",
    "check_weight_properties",
    "default_config",
    "duality_residual",
    "eval_g",
    "eval_j",
    "freeze_linearization",
    "ftc_residual",
    "grad_j_smooth",
    "linearized_operators",
    "make_nonlinearity",
    "make_schedule",
    "minimize_exact",
    "minimize_quadratic",
    "observability_constants",
    "observability_ratio_sample",
    "parse_config",
    "picard_insensitize",
    "problem_from_config",
    "sentinel",
    "sentinel_sensitivity",
    "solve_adjoint_pair",
    "solve_backward",
    "solve_cascade",
    "solve_forward",
    "solve_forward_nonlinear",
    "validate_problem",
    "verify_null",
]
