"""Cascade solves and the sentinel functional.

The sentinel is Phi(y) = 1/2 int_Q chi_obs |y|^2.  Its first-order
sensitivity to a perturbation tau*yhat0 of the initial state equals
<q(0), yhat0> where (y, q) solves the cascade: y marches forward from
y(0) = 0 driven by chi_omega v + f, and q marches the transposed
operator backward from q(T) = 0 driven by chi_obs y.  The adjoint pair
(phi, psi) used for control synthesis mirrors the cascade: phi forward
and homogeneous, psi backward driven by chi_obs phi.  Every source that
passes from one march to the next is a mask times the previous record,
so it is read on the mask's box only (``Trajectory.on``) and marched
from there (``source_box``); the records themselves stay in sine
coefficients until a caller reads them.

In the frozen semilinear regime the two legs carry different operators:
the state leg (y, psi) uses the path-averaged secant coefficients, the
costate leg (phi, q) the pointwise tangent coefficients, which keeps the
synthesis map self-adjoint while matching the true linearized adjoint.
Either way the legs reach every solver as one ``CascadeOperators``, the
``ops`` argument (None: the linear pipeline's).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SetupError
from .pde_engine import (
    RECORD_CHUNK_BYTES,
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
    "acting_control",
    "solve_cascade",
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


def solve_adjoint_pair(
    problem: ValidatedProblem,
    phi0: Array,
    ops: CascadeOperators | None = None,
) -> AdjointPair:
    """Solve the adjoint pair: phi forward from phi0, psi backward.

    phi is homogeneous under the costate operator; psi solves the
    transposed state operator backward from psi(T) = 0 with source
    chi_obs phi at the midpoint nodes, which it reads on the obs box only:
    phi's record on that box (``Trajectory.on``) times the mask there.
    Both records stay in sine coefficients until they are read.
    """
    grid = problem.grid
    ops = ops or linearized_operators(problem)
    box = problem.obs.box
    phi = solve_forward(grid, ops.costate_schedule, phi0)
    psi = solve_backward(grid, ops.state_schedule, np.zeros(grid.shape),
                         problem.obs.values[box] * phi.on(box), source_box=box)
    return AdjointPair(phi=phi, psi=psi)


def acting_control(problem: ValidatedProblem, pair: AdjointPair) -> Array:
    """chi_omega psi, the acting control of the pair's seed, (Nt, *shape).

    psi's record is read on omega's box only; the control is zero off it.
    """
    grid = problem.grid
    box = problem.omega.box
    v = np.zeros((grid.n_steps,) + grid.shape)
    v[(slice(None),) + box] = problem.omega.values[box] * pair.psi.on(box)
    return v


def solve_cascade(
    problem: ValidatedProblem,
    v: np.ndarray | None,
    ops: CascadeOperators | None = None,
    include_force: bool = True,
) -> CascadeSolution:
    """Solve the cascade (y, q) for the acting control v = chi_omega v.

    ``v`` is the control already multiplied by the mask of omega, the
    form ``ControlResult.v`` holds.  y marches forward from zero with
    source v + f (+ the reaction offset F(0,0,0) in the frozen regime);
    q marches the transposed costate operator backward from q(T) = 0
    with source chi_obs y.  ``include_force=False`` drops both f and the
    offset, which is the homogeneous map used by the synthesis operator;
    y then reads v on omega's box only, where an acting control lives.
    q's source is y's record read on the obs box only, times the mask
    there.  Both records and q(0) stay in sine coefficients until they
    are read, so a caller that reads only ``q.state0`` converts that one
    field.
    """
    grid = problem.grid
    ops = ops or linearized_operators(problem)
    zero = np.zeros(grid.shape)
    if include_force:
        source = problem.force_fields.copy()
        if v is not None:
            source += v
        if ops.reaction_offset != 0.0:
            source += ops.reaction_offset
        y = solve_forward(grid, ops.state_schedule, zero, source)
        del source  # not held through the q march
    else:
        box = problem.omega.box
        y = solve_forward(grid, ops.state_schedule, zero,
                          None if v is None else v[(slice(None),) + box],
                          source_box=box)
    box = problem.obs.box
    q = solve_backward(grid, ops.costate_schedule, zero,
                       problem.obs.values[box] * y.on(box), source_box=box)
    return CascadeSolution(y=y, q=q)


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
    phi_plus: float
    phi_minus: float


def sentinel_sensitivity(
    problem: ValidatedProblem,
    v: np.ndarray | None,
    yhats: Array,
    tau_probe: float = 1e-3,
    base: Schedule | None = None,
) -> list[InsensitivityReport]:
    """Probe d/dtau Phi(y_tau) at tau = 0 along each direction in ``yhats``.

    ``v`` is the acting control chi_omega v, as in :func:`solve_cascade`.
    ``yhats`` stacks the perturbation directions, shape (B, *shape), and
    the result holds one report per direction.  The finite-difference
    side runs the true dynamics (reaction term active when the problem
    carries one) from initial states +-tau*yhat0 and +-tau/2*yhat0 under
    the same control, and sums each probe's sentinel step by step.  A
    linear probe is affine in tau, y0 + o yhat with yhat the source-free
    march from yhat0, so y0 and the B directions march apart and each
    probe's midpoints are formed from theirs.  With a reaction the probes
    and y0 march as one batched march of 4B + 1 rows.  The dual side does
    not depend on the direction, so it is solved once: the backward
    costate with the tangent coefficients frozen at y0 and source
    chi_obs y0, and each direction's dual value is <q(0), yhat0>.  In the
    linear case both sides agree to rounding; the half-step probes make
    quadratic tau bias visible in the report.  Everything the sentinel
    reads lies on the obs box: y0's record, the directions' midpoint sums
    (one boxed transform per block of steps, whose integrands are formed
    a chunk of steps at a time, each chunk's probe midpoints within
    RECORD_CHUNK_BYTES) and the costate's source are read there only.
    ``base`` is the schedule of ``problem.coefficients`` when the caller
    holds one (built here otherwise), so its cached step factors are
    reused.

    Raises
    ------
    SetupError
        ``direction-shape`` when ``yhats`` is not a stack of fields,
        ``probe-step`` when ``tau_probe`` is not positive, or so large
        that the sum of the probes' squared start values overflows.
    """
    grid = problem.grid
    basis = problem.basis
    nl = problem.nonlinearity
    base = base or make_schedule(grid, problem.coefficients)
    yhats = np.asarray(yhats, dtype=float)
    if yhats.shape[1:] != grid.shape:
        raise SetupError(
            "direction-shape",
            f"directions must stack fields of shape {grid.shape}, got "
            f"{yhats.shape}")
    tau = float(tau_probe)
    # the sentinel sums squares of the probes' states, which start as
    # tau times the directions
    peak = tau * float(np.abs(yhats).max(initial=0.0))
    if not (0.0 < tau and peak * peak * yhats.size < np.inf):
        raise SetupError("probe-step", f"tau_probe must be positive, and "
                         f"small enough that the squares of the probes' "
                         f"start values sum to a finite number; got {tau}")
    if not len(yhats):
        return []

    source = problem.force_fields.copy()
    if v is not None:
        source += v

    # each direction's probes start from +tau, -tau, +tau/2 and -tau/2
    # times yhat0; the hooks read midpoint sums, twice the midpoints
    offsets = np.array([tau, -tau, tau / 2, -tau / 2]).reshape((4,) + (1,) * grid.dim)
    box = problem.obs.box
    obs = problem.obs.values[box]
    spatial = tuple(range(-grid.dim, 0))
    zero = np.zeros(grid.shape)
    if nl.is_zero:
        y0, costate = solve_forward(grid, base, zero, source).on(box), base
        half_offsets = 0.5 * offsets
        # steps per chunk of the (steps, B, 4, *box) probe midpoints
        chunk = max(1, RECORD_CHUNK_BYTES // (4 * len(yhats) * obs.nbytes))

        def on_step(lo: int, totals: Array) -> Array:
            # each probe's integrand at its midpoints y0 + (o/2) d, d the
            # sums of its direction's source-free march, a chunk of steps
            # at a time
            d = basis.from_modes(totals, box)
            rec = np.empty((len(d), len(yhats), 4))
            for i in range(0, len(d), chunk):
                part = slice(i, min(i + chunk, len(d)))
                probe = half_offsets * d[part, :, None]
                probe += y0[lo + part.start:lo + part.stop, None, None]
                probe *= probe
                probe *= obs
                np.sum(probe, axis=spatial, out=rec[part])
            return rec

        sums = solve_forward(grid, base, yhats, on_step=on_step).fields
    else:
        # the tangent builder lives with the outer iteration module
        from .semilinear_loop import tangent_schedule

        starts = np.concatenate([
            zero[None], (offsets * yhats[:, None]).reshape((-1,) + grid.shape)])
        sums = np.empty((grid.n_steps, 4 * len(yhats)))
        probes = (slice(1, None),) + box

        def on_step(lo: int, totals: Array) -> Array:
            # per-step integrands keep the squares small; y0's midpoints are kept
            for j, total in enumerate(totals, lo):
                sums[j] = 0.25 * np.sum(obs * total[probes]**2, axis=spatial)
            return 0.5 * totals[:, 0]

        run = solve_forward_nonlinear(grid, base, nl, starts, source, on_step=on_step)
        y0, costate = run.on(box), tangent_schedule(problem, run)
    phis = 0.5 * grid.dt * basis.cell_volume * np.sum(sums, axis=0)

    # dual side at tau = 0, shared by every direction
    q = solve_backward(grid, costate, zero, obs * y0, source_box=box)
    q0_norm = basis.norm(q.state0)

    reports = []
    for yhat0, (phi_plus, phi_minus, phi_half, phi_mhalf) in zip(
            yhats, phis.reshape(-1, 4).tolist()):
        d_fd = (phi_plus - phi_minus) / (2 * tau)
        d_fd_half = (phi_half - phi_mhalf) / tau
        d_dual = basis.inner(q.state0, yhat0)
        gap = abs(d_fd - d_dual)
        scale = q0_norm * basis.norm(yhat0) + abs(d_dual)
        reports.append(InsensitivityReport(
            tau=tau, d_fd=d_fd, d_fd_half=d_fd_half, d_dual=d_dual,
            gap=gap, gap_rel=gap / (scale + 1e-300),
            q0_norm=q0_norm, phi_plus=phi_plus, phi_minus=phi_minus,
        ))
    return reports
