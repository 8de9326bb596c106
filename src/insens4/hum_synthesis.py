"""Penalized synthesis of cascade null controls.

The synthesis operator maps an adjoint seed phi0 to the cascade costate
at t = 0: phi marches forward from phi0, psi marches backward driven by
chi_obs phi, the state reacts to the control v = psi on omega, and the
costate collects chi_obs y back to t = 0.  Minimizing

    J(phi0) = 1/2 int_{Q_omega} |psi|^2 + P(phi0) + int_Q f psi

over seeds, with penalty P = eps ||phi0|| (exact-norm variant) or
P = eps/2 ||phi0||^2 (quadratic surrogate), yields a control whose
cascade satisfies ||q(0)|| <= eps up to solver tolerance.  Neither the
operator nor the affine term is ever materialized: an operator apply
marches the adjoint pair and the force-free cascade (four marches), the
affine term the forced cascade (two).  The cascade is linear, so the
returned control's cascade is the sum of the forced cascade and the
homogeneous cascade of its seed, both of which the minimization has
usually marched already.  Every entry point but the observability
sampler, which samples the linear pipeline, takes its linearization as
``ops``, a ``CascadeOperators`` (None: the linear pipeline's).

Both variants solve on one Lanczos model T of the synthesis operator,
built from b and diagonalized once per dimension into its Ritz pairs.
The quadratic variant solves the shifted model (T + eps I) y = ||b|| e1,
which is conjugate gradients in another basis.  The exact-norm variant
takes the shift delta that balances the norm, delta ||y(delta)|| = eps,
by Newton's method on the same Ritz pairs, which costs one Krylov basis
instead of one linear solve per candidate weight, and starts proximal
gradient steps with backtracking line search there; the proximal phase
certifies optimality against the true operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade_sentinel import (
    CascadeOperators,
    CascadeSolution,
    linearized_operators,
    solve_adjoint_pair,
    solve_cascade,
)
from .errors import SynthesisError
from .pde_engine import Trajectory, solve_backward, solve_forward
from .problem_setup import ValidatedProblem

__all__ = [
    "ControlResult",
    "NullReport",
    "RatioReport",
    "shrink",
    "minimize_quadratic",
    "minimize_exact",
    "verify_null",
    "observability_ratio_sample",
]

Array = np.ndarray

VARIANTS = ("exact", "quadratic")

# Largest Lanczos basis either variant builds.
KRYLOV_CAP = 300

# Most Newton steps one secular solve takes.
SECULAR_STEP_CAP = 64

# Largest record of phi's obs-box midpoints, (Nt, B, *obs box), that one
# stack of the observability sampler holds; it sets the B rows per stack.
RATIO_STACK_CAP_BYTES = 4 * 2**20


@dataclass
class ControlResult:
    """A synthesized control with its cascade and diagnostics.

    ``v`` is the control already multiplied by the mask of omega, so it
    vanishes off the control region; feed it back through
    ``solve_cascade(problem, v, ops)`` to reproduce ``y`` and ``q``.
    """

    variant: str
    epsilon: float
    branch: str  # "interior" or "zero"
    phi0: Array = field(repr=False)
    v: Array = field(repr=False)
    y: Trajectory = field(repr=False)
    q: Trajectory = field(repr=False)
    q0: Array = field(repr=False)
    problem: ValidatedProblem = field(repr=False)
    ops: CascadeOperators = field(repr=False)
    q0_norm: float = 0.0
    v_norm: float = 0.0
    bound_value: float = 0.0
    converged: bool = False
    iterations: int = 0
    operator_applies: int = 0
    optimality_residual: float = 0.0
    objective: float = 0.0
    convergence_log: list[dict] = field(default_factory=list, repr=False)


@dataclass
class NullReport:
    """Recomputed null-condition check for a stored control."""

    epsilon: float
    q0_norm: float
    passed: bool
    bound_within: bool  # ||v|| <= the control bound; reported only


@dataclass
class RatioReport:
    """Empirical observability ratios over random adjoint seeds."""

    n_samples: int
    n_degenerate: int
    n_nonfinite: int
    mode_cap: int
    seed: int
    rate_m: float
    h_value: float
    max_ratio: float
    median_ratio: float
    empirical_c: float
    samples: list[dict] = field(repr=False, default_factory=list)


def shrink(u: Array, c: float, basis) -> Array:
    """Radial soft threshold: max(1 - c/||u||, 0) u in L2 of the domain."""
    n = basis.norm(u)
    if n <= c:
        return np.zeros_like(u)
    return (1.0 - c / n) * u


class _Synthesis:
    """Matrix-free operator and affine term, with an apply counter.

    ``last`` keeps (phi0, v, cascade) of the seed ``apply`` saw last, and
    ``forced`` the cascade of ``affine``: :func:`_assemble` superposes
    the two instead of marching again.
    """

    def __init__(self, problem: ValidatedProblem,
                 ops: CascadeOperators | None = None):
        self.problem = problem
        self.ops = ops or linearized_operators(problem)
        self.applies = 0
        self.last: tuple[Array, Array, CascadeSolution] | None = None
        self.forced: CascadeSolution | None = None

    def apply(self, phi0: Array) -> Array:
        """Lambda phi0: q(0) of the force-free cascade of v = chi_omega psi."""
        self.last = None  # drop the stored cascade before marching another
        pair = solve_adjoint_pair(self.problem, phi0, ops=self.ops)
        v = self.problem.omega.values * pair.psi.fields
        del pair
        casc = solve_cascade(self.problem, v, ops=self.ops, include_force=False)
        self.last = (phi0, v, casc)
        self.applies += 1
        return casc.q0

    def affine(self) -> Array:
        """b: costate at t = 0 with zero control and the force on."""
        self.forced = solve_cascade(self.problem, None, ops=self.ops,
                                    include_force=True)
        self.applies += 1
        return self.forced.q0


def _control_bound(problem: ValidatedProblem) -> float:
    """2 sqrt(H int e^{M/sqrt(t)} |f|^2), H from the problem's constants."""
    fw = problem.force_weight_integral
    if fw == 0.0:
        return 0.0
    h = problem.constants.cost_h
    if math.isinf(h):
        return math.inf
    return 2.0 * math.sqrt(h * fw)


def _superpose(hom: Trajectory, forced: Trajectory) -> Trajectory:
    """hom + forced, summed into hom's record, which is not read again."""
    hom.fields += forced.fields
    return Trajectory(hom.basis, hom.dt, hom.fields,
                      state0=hom.state0 + forced.state0,
                      stateT=hom.stateT + forced.stateT)


def _assemble(syn: _Synthesis, phi0: Array, branch: str,
              **fields) -> ControlResult:
    """The control of phi0 and its forced cascade, by superposition.

    The cascade of v = chi_omega psi with the force on is the forced
    cascade of ``affine`` plus the homogeneous cascade of phi0.  The
    latter is the stored one when phi0 is the seed applied last, as it
    is at every proximal exit; otherwise (the quadratic variant, a
    proximal phase with no iterations) phi0 is applied once more.  The
    zero branch has v = 0 and takes the forced cascade as it is.
    ``fields`` are the remaining ``ControlResult`` fields.
    """
    problem = syn.problem
    basis = problem.basis
    forced = syn.forced
    if branch == "zero":
        v = np.zeros(forced.y.fields.shape)
        y, q = forced.y, forced.q
    else:
        if syn.last is None or syn.last[0] is not phi0:
            syn.apply(phi0)
        _, v, hom = syn.last
        syn.last = None
        y, q = _superpose(hom.y, forced.y), _superpose(hom.q, forced.q)
    cell = problem.grid.dt * basis.cell_volume
    return ControlResult(
        branch=branch,
        phi0=phi0,
        v=v,
        y=y,
        q=q,
        q0=q.state0,
        q0_norm=basis.norm(q.state0),
        v_norm=float(np.sqrt(cell * np.sum(v * v))),
        bound_value=_control_bound(problem),
        operator_applies=syn.applies,
        problem=problem,
        ops=syn.ops,
        **fields,
    )


def minimize_quadratic(
    problem: ValidatedProblem,
    *,
    tol: float = 1e-8,
    max_iter: int = 300,
    ops: CascadeOperators | None = None,
) -> ControlResult:
    """Lanczos solve of the quadratic-penalty normal system.

    Solves (Lambda + eps I) phi0 = -b, eps = ``problem.epsilon``, on the
    Lanczos model of the operator built from b: the model solution at
    dimension m is the m-th conjugate-gradient iterate.  The basis grows
    until the model's residual estimate falls below tol ||b|| or it
    holds min(max_iter, KRYLOV_CAP) vectors; the result converged when the
    true residual ||(Lambda + eps) phi0 + b||, the recorded optimality
    residual, is below tol ||b||.  The logged objective is the model
    value 1/2 <phi0, (Lambda + eps) phi0> + <b, phi0> = -1/2 ||b|| y_1,
    read from the Ritz pairs as -1/2 g^T (g / (theta + eps)).
    With ``max_iter = 0`` no basis is built and phi0 = 0.  The returned
    phi0 is a combination of the basis, not a seed the model applied,
    so its cascade costs one more apply.

    Raises
    ------
    SynthesisError
        ``cg-stall`` when the model of Lambda + eps I is not positive
        definite (its smallest Ritz value plus eps is not positive): the
        operator lost symmetry or positivity.  The Krylov dimension
        rides along in the error context.  ``lanczos-nonfinite`` when a
        Lanczos coefficient is not finite.
    """
    eps = problem.epsilon
    syn = _Synthesis(problem, ops)
    basis = problem.basis
    log: list[dict] = []

    b = syn.affine()
    bnorm = basis.norm(b)
    if bnorm == 0.0:
        return _assemble(syn, np.zeros(basis.shape), "zero",
                         variant="quadratic", epsilon=eps, converged=True,
                         convergence_log=log)

    objectives: list[float] = []

    def shift(theta: Array, g: Array) -> float:
        if theta[0] + eps <= 0.0:
            raise SynthesisError(
                "cg-stall", "the Lanczos model of Lambda + eps I is not "
                "positive definite; the operator lost symmetry or positivity",
                krylov_dim=len(theta), ritz_min=float(theta[0]), epsilon=eps)
        objectives.append(-0.5 * float(g @ (g / (theta + eps))))
        return eps

    x, lam_x, _, theta = _lanczos(syn, b, bnorm, shift, tol,
                                  min(max_iter, KRYLOV_CAP), log)
    for entry, objective in zip(log, objectives):
        entry["objective"] = objective
    optimality = basis.norm(lam_x + eps * x + b)
    return _assemble(syn, x, "interior", variant="quadratic", epsilon=eps,
                     converged=optimality <= tol * bnorm,
                     iterations=len(theta), optimality_residual=optimality,
                     objective=objectives[-1] if objectives else 0.0,
                     convergence_log=log)


def _tridiagonal(alphas, betas) -> Array:
    """Symmetric tridiagonal T: diagonal alphas, off-diagonal betas[:m - 1]."""
    m = len(alphas)
    t = np.diag(alphas)
    if m > 1:
        t += np.diag(betas[:m - 1], 1) + np.diag(betas[:m - 1], -1)
    return t


def _secular_solve(theta: Array, g: Array, eps: float) -> float | None:
    """Penalty weight delta with delta ||y(delta)|| = eps on the model.

    ||y(delta)|| = ||g / (theta + delta)|| on the Ritz pairs.  Newton's
    method on psi(delta) = 1/||y(delta)|| - delta/eps, concave for delta
    > -theta_min (Hebden; More and Sorensen), starts at delta_0 = eps
    theta_max / (||b|| - eps), where psi <= 0 as ||y|| >= ||b|| /
    (theta_max + delta), so the iterates descend monotonically to the
    root; it stops once a step no longer shrinks.  None when theta_max
    <= 0, ||b|| <= eps or the root is not above max(0, -theta_min).
    """
    bnorm = float(np.linalg.norm(g))
    if not (theta[-1] > 0.0 and bnorm > eps):
        return None
    delta = eps * theta[-1] / (bnorm - eps)
    last = math.inf
    for _ in range(SECULAR_STEP_CAP):
        shifted = theta + delta
        r = g / shifted
        norm = math.sqrt(r @ r)
        slope = (r @ (r / shifted)) / norm**3 - 1.0 / eps
        step = (1.0 / norm - delta / eps) / slope
        if not abs(step) < last:
            break
        delta -= step
        last = abs(step)
    return float(delta) if delta > max(0.0, -theta[0]) else None


def _lanczos(syn: _Synthesis, b: Array, bnorm: float, shift, rtol: float,
             max_dim: int, log: list[dict]):
    """Krylov model of the operator from b, solved on its Ritz pairs.

    Builds an orthonormal (in the domain inner product) Lanczos basis
    from b with full reorthogonalization.  At each dimension the
    tridiagonal model is diagonalized once, T = Q diag(theta) Q^T, and
    ``shift(theta, g)`` with g = ||b|| Q^T e1 returns the shift delta, or
    None when the model has no solution there; the model solution of
    (T + delta I) y = ||b|| e1 is y = Q (g / (theta + delta)).  The basis
    stops growing once the residual estimate of the shifted system drops
    below rtol ||b||, at an invariant subspace, or at ``max_dim``
    vectors.  Returns x = -sum_i y_i v_i from the last solved model, its
    image Lambda x, that delta and the Ritz values theta of the full
    model (ascending; its length is the Krylov dimension).  Lambda x is
    the same combination of the images Lambda v_i the basis was built
    from, and needs no apply of its own.  When no model was solved, x
    and Lambda x are zero and delta is None.  An alpha or beta that is
    not finite (the operator's marches did not stay finite) raises the
    coded ``lanczos-nonfinite`` at the dimension where it appears.
    """
    basis = syn.problem.basis
    dim_total = int(np.prod(basis.shape))
    cap = min(max_dim, dim_total)
    vecs = [b / bnorm]
    images = []  # Lambda v_i, before orthogonalization
    alphas: list[float] = []
    betas: list[float] = []
    theta = np.zeros(0)
    delta = None
    yhat = None
    for m in range(1, cap + 1):
        w = syn.apply(vecs[-1])
        images.append(w)
        if betas:
            w = w - betas[-1] * vecs[-2]
        a = basis.inner(w, vecs[-1])
        alphas.append(float(a))
        w = w - a * vecs[-1]
        for u in vecs:
            w = w - basis.inner(w, u) * u
        bm = math.sqrt(basis.inner(w, w))
        if not (math.isfinite(a) and math.isfinite(bm)):
            raise SynthesisError(
                "lanczos-nonfinite",
                f"Lanczos coefficients are not finite at Krylov dimension "
                f"{m} (alpha = {a:.3e}, beta = {bm:.3e}); the synthesis "
                f"operator's marches did not stay finite",
                krylov_dim=m, alphas=alphas, betas=betas + [bm])
        theta, q = np.linalg.eigh(_tridiagonal(alphas, betas))
        g = bnorm * q[0]
        sol = shift(theta, g)
        if sol is not None:
            delta, yhat = sol, q @ (g / (theta + sol))
            resid = bm * abs(yhat[-1])
            log.append({"phase": "lanczos", "dimension": m, "residual": resid,
                        "delta": delta})
            if resid <= rtol * bnorm:
                break
        if bm <= 1e-13 * max(1.0, bnorm):
            break  # invariant subspace: the model is exact
        betas.append(bm)
        vecs.append(w / bm)
    if yhat is None:
        return np.zeros(basis.shape), np.zeros(basis.shape), None, theta
    x = -np.tensordot(yhat, np.asarray(vecs[:len(yhat)]), axes=(0, 0))
    lam_x = -np.tensordot(yhat, np.asarray(images[:len(yhat)]), axes=(0, 0))
    return x, lam_x, delta, theta


def minimize_exact(
    problem: ValidatedProblem,
    *,
    tol: float = 1e-8,
    max_iter: int = 2000,
    ops: CascadeOperators | None = None,
) -> ControlResult:
    """Proximal gradient on the exact-norm penalized functional.

    The penalty level eps is ``problem.epsilon``.  When ||b|| <= eps
    the minimizer is phi0 = 0 and the result takes the zero branch with
    v = 0.  Otherwise proximal gradient steps
    phi0 <- shrink(phi0 - gamma grad, gamma eps) run with backtracking
    (halve gamma until sufficient decrease) from the Lanczos warm
    start, the model solution at the delta of :func:`_secular_solve`,
    with first step 1/theta_max, and stop when the proximal-mapping
    norm falls below tol (1 + ||phi0||).  A step that meets that test
    (a stationary one, at any step size) is accepted: the result is z,
    the point it last applied, so its cascade is superposed, never
    marched again.  On success the optimality condition
    q(0) + eps phi0/||phi0|| = 0 holds within the recorded residual.

    Raises
    ------
    SynthesisError
        ``synthesis-degenerate`` when no penalty weight balances the norm
        on the Lanczos model; ``prox-stall`` on backtracking exhaustion;
        ``lanczos-nonfinite`` when a Lanczos coefficient is not finite.
    """
    eps = problem.epsilon
    syn = _Synthesis(problem, ops)
    basis = problem.basis
    log: list[dict] = []

    b = syn.affine()
    bnorm = basis.norm(b)
    if bnorm <= eps * (1.0 + 1e-12):
        # zero subgradient branch: eps dominates the affine pull
        log.append({"phase": "branch", "norm_b": bnorm, "epsilon": eps})
        return _assemble(syn, np.zeros(basis.shape), "zero", variant="exact",
                         epsilon=eps, converged=True, convergence_log=log)

    x, lam_x, delta, theta = _lanczos(
        syn, b, bnorm, lambda theta, g: _secular_solve(theta, g, eps), 1e-10,
        KRYLOV_CAP, log)
    if delta is None:
        raise SynthesisError(
            "synthesis-degenerate",
            "no positive penalty weight balances the norm; the synthesis "
            "operator is degenerate along the affine term",
            epsilon=eps, krylov_dim=len(theta))
    ritz = float(theta[-1])
    log.append({"phase": "secular", "delta": delta,
                "rho": basis.norm(x), "ritz_max": ritz})
    gamma0 = 1.0 / max(ritz, 1e-30)
    gamma = gamma0

    js_x = 0.5 * basis.inner(x, lam_x) + basis.inner(b, x)
    objective = js_x + eps * basis.norm(x)
    converged = False
    iterations = max_iter
    for it in range(1, max_iter + 1):
        g = lam_x + b
        accepted = False
        stationary = False
        for _ in range(40):
            z = shrink(x - gamma * g, gamma * eps, basis)
            dz = z - x
            prox_norm = math.sqrt(basis.inner(dz, dz)) / gamma
            lam_z = syn.apply(z)
            js_z = 0.5 * basis.inner(z, lam_z) + basis.inner(b, z)
            # the prox mapping measures stationarity at any step size, so
            # a vanishing step is a normal stop, not a failed backtrack
            if prox_norm <= tol * (1.0 + basis.norm(x)):
                accepted = True
                stationary = True
                break
            bound = js_x + basis.inner(g, dz) \
                + 0.5 * basis.inner(dz, dz) / gamma
            if js_z <= bound + 1e-15 * (1.0 + abs(js_x)):
                accepted = True
                break
            gamma *= 0.5
        if not accepted:
            raise SynthesisError(
                "prox-stall", "backtracking exhausted without sufficient "
                "decrease", iteration=it, step=gamma, phi0=x)
        x, lam_x, js_x = z, lam_z, js_z
        xnorm = basis.norm(x)
        objective = js_x + eps * xnorm
        log.append({"phase": "ista", "iteration": it, "prox_norm": prox_norm,
                    "objective": objective, "step": gamma})
        if stationary or prox_norm <= tol * (1.0 + xnorm):
            converged = True
            iterations = it
            break
        gamma = min(gamma * 1.25, gamma0)

    xnorm = basis.norm(x)
    if xnorm > 0.0:
        optimality = basis.norm(lam_x + b + eps * x / xnorm)
    else:
        optimality = max(0.0, basis.norm(lam_x + b) - eps)
    return _assemble(syn, x, "interior", variant="exact", epsilon=eps,
                     converged=converged, iterations=iterations,
                     optimality_residual=optimality, objective=objective,
                     convergence_log=log)


def verify_null(result: ControlResult) -> NullReport:
    """Recompute the cascade from the stored control and check q(0).

    The pass verdict covers only ||q(0)|| <= 1.01 eps.  ``bound_within``
    compares ||v|| with the result's ``bound_value``, the control bound
    2 sqrt(H * int e^{M/sqrt(t)} |f|^2); that bound carries an unknown
    geometric constant, so it never fails the check.
    """
    problem = result.problem
    casc = solve_cascade(problem, result.v, ops=result.ops, include_force=True)
    q0_norm = problem.basis.norm(casc.q0)
    return NullReport(
        epsilon=result.epsilon,
        q0_norm=q0_norm,
        passed=bool(q0_norm <= 1.01 * result.epsilon),
        bound_within=bool(result.v_norm <= result.bound_value),
    )


def _ratio_stack(problem: ValidatedProblem, phi0s: Array, weights: Array,
                 ops: CascadeOperators) -> list[tuple[float, bool]]:
    """Observability ratios of a (B, *shape) stack of seeds, row by row.

    Each row is the adjoint pair of :func:`solve_adjoint_pair`, and the
    stack marches together on the boxes its masks read.  Each march's
    ``on_step`` sees its midpoint sums' sine coefficients, twice the
    midpoints', a block of steps at a time.  phi's converts each block on
    the obs box only and records chi_obs phi there, which is psi's
    per-row box source.  psi's streams, per row and step, the sum of
    psi^2 (by Parseval, from the modes) and that of omega psi^2 (on
    omega's box).  The halving is folded into the
    factors the hooks multiply by (1/2 for phi, 1/4 for the squares of
    psi), which leaves every product as it was to the bit.  No step
    transforms a full grid and no (Nt, *shape) field is stored.  Returns
    (ratio, status) per row: ``ok``, ``degenerate-psi`` for a row whose
    control-window energy underflows, or ``nonfinite`` (ratio NaN) for a
    row whose energies or ratio are not finite.
    """
    grid = problem.grid
    basis = problem.basis
    obs, omega = problem.obs, problem.omega
    half_obs = 0.5 * obs.values[obs.box]
    quarter_omega = 0.25 * omega.values[omega.box].ravel()
    quarter_parseval = 0.25 * (basis.mode_volume / basis.cell_volume)

    def observed(lo: int, totals: Array) -> Array:
        return half_obs * basis.from_modes(totals, obs.box)

    def energies(lo: int, totals: Array) -> Array:
        steps, rows = totals.shape[:2]
        on_omega = basis.from_modes(totals, omega.box).reshape(steps, rows, -1)
        totals = totals.reshape(steps, rows, -1)
        rec = np.empty((steps, 2, rows))
        np.einsum("kbi,kbi->kb", totals, totals, out=rec[:, 0])
        rec[:, 0] *= quarter_parseval
        np.einsum("i,kbi,kbi->kb", quarter_omega, on_omega, on_omega,
                  out=rec[:, 1])
        return rec

    phi = solve_forward(grid, ops.costate_schedule, phi0s, on_step=observed)
    psi = solve_backward(grid, ops.state_schedule, np.zeros(phi0s.shape),
                         phi.fields, on_step=energies, source_box=obs.box)
    cell = grid.dt * basis.cell_volume
    nums = cell * (weights @ psi.fields[:, 0])
    dens = cell * np.sum(psi.fields[:, 1], axis=0)
    return [_ratio_status(num, den) for num, den in zip(nums, dens)]


def _ratio_status(num: float, den: float) -> tuple[float, str]:
    """A row's ratio and status from its two energies."""
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.nan, "nonfinite"
    if den <= 1e-300:
        return math.nan, "degenerate-psi"
    ratio = float(num / den)
    return (ratio, "ok") if math.isfinite(ratio) else (math.nan, "nonfinite")


def observability_ratio_sample(
    problem: ValidatedProblem,
    n_samples: int = 50,
    seed: int = 0,
    mode_cap: int | None = None,
) -> RatioReport:
    """Empirical spread of the weighted observability ratio.

    Draws unit-norm seeds with random spectral decay (coefficients
    g_m rank^-p, p uniform on [0.5, 2.5]), solves the adjoint pair,
    and reports R = int_Q e^{-M/sqrt(t)} |psi|^2 / int_{Q_omega} |psi|^2
    per draw.  ``mode_cap`` pins the number of active modes per axis so
    the same seed reproduces the same continuum seeds across grid
    refinements.  Degenerate draws (a zero seed or an underflowing
    denominator) are skipped and reported, never asserted against.  A
    draw whose energies are not finite has status ``nonfinite``; it is
    counted apart and left out of the maximum and the median.

    Consecutive draws march together in stacks of as many rows as
    RATIO_STACK_CAP_BYTES allows for phi's obs-box record, and each
    stack's seeds are drawn just before it marches, in index order, so
    only one stack of seeds is held (a zero seed leaves its stack).  A
    stack transforms only what the masks read, on their boxes, and
    streams psi's energies from its sine coefficients (see
    :func:`_ratio_stack`): the full-grid transforms are the seeds'
    synthesis and each stack's start and end states.

    Raises
    ------
    SynthesisError
        ``sample-count`` when ``n_samples < 1``, ``mode-cap`` when the
        mode cap is below one.
    """
    if n_samples < 1:
        raise SynthesisError("sample-count",
                             f"need at least one sample, got {n_samples}")
    ops = linearized_operators(problem)
    basis = problem.basis
    shape = basis.shape
    cap = min(shape) if mode_cap is None else min(int(mode_cap), min(shape))
    if cap < 1:
        raise SynthesisError("mode-cap", f"mode cap must be >= 1, got {cap}")
    rng = np.random.default_rng(np.random.Philox(seed))
    rate_m = problem.constants.rate_m
    weights = np.exp(-rate_m / np.sqrt(problem.grid.times))

    record_row = 8 * problem.grid.n_steps * problem.obs.values[problem.obs.box].size
    rows = max(1, RATIO_STACK_CAP_BYTES // record_row)
    decays: list[float] = []
    results: dict[int, tuple[float, str]] = {}
    for first in range(0, n_samples, rows):
        # the stack's seeds, drawn in index order; a zero seed leaves it
        live, stack = [], []
        for i in range(first, min(first + rows, n_samples)):
            decays.append(rng.uniform(0.5, 2.5))
            phi0 = basis.random_smooth(rng, decays[-1], cap)
            norm = basis.norm(phi0)
            if norm != 0.0:
                live.append(i)
                stack.append(phi0 / norm)
        if live:
            stack = np.array(stack)
            results.update(zip(live, _ratio_stack(problem, stack, weights, ops)))

    samples: list[dict] = []
    ratios: list[float] = []
    for i, decay in enumerate(decays):
        ratio, status = results.get(i, (math.nan, "degenerate-psi"))
        samples.append({"index": i, "decay": decay, "ratio": ratio,
                        "status": status})
        if status == "ok":
            ratios.append(ratio)
    n_nonfinite = sum(sample["status"] == "nonfinite" for sample in samples)

    h = problem.constants.cost_h
    max_ratio = median_ratio = math.nan
    if ratios:
        # np.median's value, without its first call's import of numpy.ma
        ratios.sort()
        half = len(ratios) // 2
        max_ratio = ratios[-1]
        median_ratio = ratios[half] if len(ratios) % 2 \
            else (ratios[half - 1] + ratios[half]) / 2
    if ratios and not math.isinf(h):
        empirical_c = max_ratio / h
    else:
        empirical_c = 0.0 if math.isinf(h) else math.nan
    return RatioReport(
        n_samples=n_samples,
        n_degenerate=n_samples - len(ratios) - n_nonfinite,
        n_nonfinite=n_nonfinite,
        mode_cap=cap,
        seed=seed,
        rate_m=rate_m,
        h_value=h,
        max_ratio=max_ratio,
        median_ratio=median_ratio,
        empirical_c=empirical_c,
        samples=samples,
    )
