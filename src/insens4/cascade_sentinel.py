"""Cascade solves and the sentinel functional.

The sentinel is Phi(y) = 1/2 int_Q chi_obs |y|^2.  Its first-order
sensitivity to a perturbation tau*yhat0 of the initial state equals
<q(0), yhat0> where (y, q) solves the cascade: y marches forward from
y(0) = 0 driven by chi_omega v + f, and q marches the transposed
operator backward from q(T) = 0 driven by chi_obs y.  The adjoint pair
(phi, psi) used for control synthesis mirrors the cascade: phi forward
and homogeneous, psi backward driven by chi_obs phi.

In the frozen semilinear regime the two legs carry different operators:
the state leg (y, psi) uses the path-averaged secant coefficients, the
costate leg (phi, q) the pointwise tangent coefficients, which keeps the
synthesis map self-adjoint while matching the true linearized adjoint.
Either way the legs reach every solver as one ``CascadeOperators``, the
``ops`` argument (None: the linear pipeline's).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SetupError
from .pde_engine import (
    Schedule,
    Trajectory,
    make_schedule,
    solve_backward,
    solve_forward,
    solve_forward_nonlinear,
)
from .problem_setup import ValidatedProblem

__all__ = [
    "CascadeOperators",
    "AdjointPair",
    "CascadeSolution",
    "InsensitivityReport",
    "linearized_operators",
    "solve_adjoint_pair",
    "solve_cascade",
    "sentinel",
    "sentinel_sensitivity",
]

Array = np.ndarray


@dataclass
class CascadeOperators:
    """Coefficient schedules for the two legs of the cascade."""

    state_schedule: Schedule
    costate_schedule: Schedule
    reaction_offset: float = 0.0  # -F(0,0,0), added to the state source

    def release_factors(self) -> None:
        """Free the step factors both legs' marches cached."""
        self.state_schedule.release_factors()
        self.costate_schedule.release_factors()


def linearized_operators(problem: ValidatedProblem) -> CascadeOperators:
    """Operators of the linear pipeline: base coefficients, no reaction."""
    base = make_schedule(problem.grid, problem.coefficients)
    return CascadeOperators(base, base, 0.0)


@dataclass
class AdjointPair:
    phi: Trajectory
    psi: Trajectory


@dataclass
class CascadeSolution:
    y: Trajectory
    q: Trajectory
    q0: np.ndarray = field(repr=False)


def solve_adjoint_pair(
    problem: ValidatedProblem,
    phi0: Array,
    ops: CascadeOperators | None = None,
) -> AdjointPair:
    """Solve the adjoint pair: phi forward from phi0, psi backward.

    phi is homogeneous under the costate operator; psi solves the
    transposed state operator backward from psi(T) = 0 with source
    chi_obs phi at the midpoint nodes.
    """
    grid = problem.grid
    ops = ops or linearized_operators(problem)
    phi = solve_forward(grid, ops.costate_schedule, phi0)
    psi_source = problem.obs.values * phi.fields
    psi = solve_backward(grid, ops.state_schedule, np.zeros(grid.shape), psi_source)
    return AdjointPair(phi=phi, psi=psi)


def solve_cascade(
    problem: ValidatedProblem,
    v: np.ndarray | None,
    ops: CascadeOperators | None = None,
    include_force: bool = True,
    premasked: bool = False,
) -> CascadeSolution:
    """Solve the cascade (y, q) for a given control v on Q_omega.

    y marches forward from zero with source chi_omega v + f (+ the
    reaction offset F(0,0,0) in the frozen regime); q marches the
    transposed costate operator backward from q(T) = 0 with source
    chi_obs y.  ``include_force=False`` drops both f and the offset,
    which is the homogeneous map used by the synthesis operator.
    ``premasked=True`` takes v as already multiplied by the control
    mask, the form a stored control comes in.
    """
    grid = problem.grid
    ops = ops or linearized_operators(problem)
    source = np.zeros((grid.n_steps,) + grid.shape)
    if v is not None:
        source += v if premasked else problem.omega.values * v
    if include_force:
        source += problem.force_fields
        if ops.reaction_offset != 0.0:
            source += ops.reaction_offset
    y = solve_forward(grid, ops.state_schedule, np.zeros(grid.shape), source)
    del source  # not held through the q march
    q = solve_backward(grid, ops.costate_schedule, np.zeros(grid.shape),
                       problem.obs.values * y.fields)
    return CascadeSolution(y=y, q=q, q0=q.state0)


def sentinel(y: Trajectory, obs_values: Array) -> float:
    """Phi(y) = 1/2 int_Q chi_obs |y|^2 by midpoint quadrature."""
    return float(0.5 * y.dt * y.basis.cell_volume * np.sum(obs_values * y.fields**2))


@dataclass
class InsensitivityReport:
    """Finite-difference sentinel sensitivity against its dual value."""

    tau: float
    d_fd: float
    d_fd_half: float
    d_dual: float
    gap: float
    gap_rel: float
    q0_norm: float
    yhat_norm: float
    phi_plus: float
    phi_minus: float

    @property
    def cauchy_schwarz_bound(self) -> float:
        return self.q0_norm * self.yhat_norm


def sentinel_sensitivity(
    problem: ValidatedProblem,
    v: np.ndarray | None,
    yhats: Array,
    tau_probe: float = 1e-3,
    premasked: bool = False,
) -> list[InsensitivityReport]:
    """Probe d/dtau Phi(y_tau) at tau = 0 along each direction in ``yhats``.

    ``yhats`` stacks the perturbation directions, shape (B, *shape), and
    the result holds one report per direction.  The finite-difference
    side runs the true dynamics (reaction term active when the problem
    carries one) from initial states +-tau*yhat0 and +-tau/2*yhat0 under
    the same control.  These runs and the run y0 at tau = 0 march as one
    batched march that accumulates each run's sentinel step by step and
    keeps only the fields of y0.  The dual side does not depend on the
    direction, so it is solved once: y0, then the backward
    costate with the tangent coefficients frozen at y0 and source
    chi_obs y0, and each direction's dual value is <q(0), yhat0>.  In the
    linear case both sides agree to rounding; the half-step re-run makes
    quadratic tau bias visible in the report.

    Raises
    ------
    SetupError
        ``direction-shape`` when ``yhats`` is not a stack of fields,
        ``probe-step`` when ``tau_probe`` is not positive and finite.
    """
    grid = problem.grid
    basis = problem.basis
    nl = problem.nonlinearity
    base = make_schedule(grid, problem.coefficients)
    yhats = np.asarray(yhats, dtype=float)
    if yhats.shape[1:] != grid.shape:
        raise SetupError(
            "direction-shape",
            f"directions must stack fields of shape {grid.shape}, got "
            f"{yhats.shape}")
    tau = float(tau_probe)
    if not 0.0 < tau < np.inf:
        raise SetupError("probe-step",
                         f"tau_probe must be positive and finite, got {tau}")
    if not len(yhats):
        return []

    source = problem.force_fields.copy()
    if v is not None:
        source += v if premasked else problem.omega.values * v

    # one march of every run: row 0 starts at tau = 0, then each direction
    # from +tau, -tau, +tau/2 and -tau/2 times yhat0
    offsets = np.array([tau, -tau, tau / 2, -tau / 2])
    starts = np.concatenate([
        np.zeros((1,) + grid.shape),
        (offsets.reshape((1, 4) + (1,) * grid.dim)
         * yhats[:, None]).reshape((-1,) + grid.shape),
    ])
    obs = problem.obs.values
    spatial = tuple(range(1, 1 + grid.dim))
    sums = np.empty((grid.n_steps, len(starts)))

    def on_step(j: int, mid: Array) -> Array:
        # each row's sentinel integrand; only the tau = 0 fields are kept
        sums[j] = np.sum(obs * mid**2, axis=spatial)
        return mid[0]

    run = solve_forward_nonlinear(grid, base, nl, starts, source, on_step=on_step)
    phis = 0.5 * grid.dt * basis.cell_volume * np.sum(sums, axis=0)

    # dual side from the cascade at tau = 0, shared by every direction
    zero = np.zeros(grid.shape)
    y0_traj = Trajectory(basis, grid.dt, grid.times, run.fields,
                         state0=zero, stateT=run.stateT[0])
    costate = base
    if not nl.is_zero:
        # tangent coefficients at the tau = 0 trajectory; imported here to
        # keep the linearization builder with the outer iteration module
        from .semilinear_loop import tangent_schedule

        costate = tangent_schedule(problem, y0_traj)
    q = solve_backward(grid, costate, zero, obs * y0_traj.fields)
    q0_norm = basis.norm(q.state0)

    reports = []
    for yhat0, (phi_plus, phi_minus, phi_half, phi_mhalf) in zip(
            yhats, phis[1:].reshape(-1, 4).tolist()):
        d_fd = (phi_plus - phi_minus) / (2 * tau)
        d_fd_half = (phi_half - phi_mhalf) / tau
        d_dual = basis.inner(q.state0, yhat0)
        yhat_norm = basis.norm(yhat0)
        gap = abs(d_fd - d_dual)
        scale = q0_norm * yhat_norm + abs(d_dual)
        reports.append(InsensitivityReport(
            tau=tau, d_fd=d_fd, d_fd_half=d_fd_half, d_dual=d_dual,
            gap=gap, gap_rel=gap / (scale + 1e-300),
            q0_norm=q0_norm, yhat_norm=yhat_norm,
            phi_plus=phi_plus, phi_minus=phi_minus,
        ))
    return reports
