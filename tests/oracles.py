"""Reference oracles the tests check the library against.

The penalized functional J and the gradient of its smooth part, each
evaluated by marching the adjoint pair (and the cascade) from one seed,
and the sentinel functional of a stored trajectory.  The library never
evaluates J itself, and it accumulates the sentinel step by step inside
its batched probe march.
"""
import numpy as np

from insens4.cascade_sentinel import (
    AdjointPair,
    CascadeOperators,
    linearized_operators,
    solve_adjoint_pair,
    solve_cascade,
)
from insens4.errors import SynthesisError
from insens4.hum_synthesis import VARIANTS, _check_epsilon
from insens4.pde_engine import Trajectory
from insens4.problem_setup import ValidatedProblem

Array = np.ndarray


def eval_j(
    problem: ValidatedProblem,
    phi0: Array,
    eps: float | None = None,
    variant: str = "exact",
    ops: CascadeOperators | None = None,
) -> tuple[float, AdjointPair]:
    """Penalized functional value at phi0, with its adjoint pair.

    J = 1/2 int_{Q_omega} |psi|^2 + P(phi0) + int_Q f psi, where f is
    the full affine state source (the forcing plus, in the frozen
    regime, the constant reaction offset).
    """
    if variant not in VARIANTS:
        raise SynthesisError("unknown-variant",
                             f"variant must be one of {VARIANTS}, got {variant!r}")
    eps = _check_epsilon(problem.epsilon if eps is None else eps)
    grid, basis = problem.grid, problem.basis
    ops = ops or linearized_operators(problem)
    pair = solve_adjoint_pair(problem, phi0, ops=ops)
    cell = grid.dt * basis.cell_volume
    smooth = 0.5 * cell * float(np.sum(problem.omega.values * pair.psi.fields**2))
    forcing = cell * float(np.sum((problem.force_fields + ops.reaction_offset)
                                  * pair.psi.fields))
    n = basis.norm(phi0)
    penalty = eps * n if variant == "exact" else 0.5 * eps * n * n
    return smooth + forcing + penalty, pair


def grad_j_smooth(
    problem: ValidatedProblem,
    phi0: Array,
    ops: CascadeOperators | None = None,
) -> Array:
    """Gradient of the smooth part of J: q(0) of the driven cascade.

    The control is v = psi of the adjoint pair, the force is on, so the
    returned field equals Lambda phi0 + b by superposition.
    """
    ops = ops or linearized_operators(problem)
    pair = solve_adjoint_pair(problem, phi0, ops=ops)
    casc = solve_cascade(problem, pair.psi.fields, ops=ops, include_force=True)
    return casc.q0


def sentinel(y: Trajectory, obs_values: Array) -> float:
    """Phi(y) = 1/2 int_Q chi_obs |y|^2 by midpoint quadrature."""
    return float(0.5 * y.dt * y.basis.cell_volume * np.sum(obs_values * y.fields**2))
