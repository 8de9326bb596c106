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
usually marched already.  Every entry point takes its linearization as
``ops``, a ``CascadeOperators`` (None: the linear pipeline's).

The exact-norm minimizer runs proximal gradient steps with backtracking
line search.  Its starting point comes from a Lanczos model of the
synthesis operator: the penalty weight that balances the norm solves a
one-dimensional secular equation on the tridiagonal model, which costs
one Krylov basis instead of one linear solve per candidate weight.  The
proximal phase then certifies optimality against the true operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade_sentinel import (
    AdjointPair,
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
    "HUMState",
    "ControlResult",
    "NullReport",
    "RatioReport",
    "shrink",
    "eval_j",
    "grad_j_smooth",
    "minimize_quadratic",
    "minimize_exact",
    "verify_null",
    "observability_ratio_sample",
]

Array = np.ndarray

VARIANTS = ("exact", "quadratic")

# Largest record of phi's obs-box midpoints, (Nt, B, *obs box), that one
# stack of the observability sampler holds; it sets the B rows per stack.
RATIO_STACK_CAP_BYTES = 4 * 2**20


@dataclass
class HUMState:
    """Terminal state of a penalized minimization."""

    phi0: Array = field(repr=False)
    gradient: Array = field(repr=False)  # smooth-part gradient at phi0
    j_value: float
    j_history: list[float]
    iterations: int
    epsilon: float
    variant: str


@dataclass
class ControlResult:
    """A synthesized control with its cascade and diagnostics.

    ``v`` is the control already multiplied by the mask of omega, so it
    vanishes off the control region; feed it back through
    ``solve_cascade(..., premasked=True)`` to reproduce ``y`` and ``q``.
    """

    variant: str
    epsilon: float
    branch: str  # "interior" or "zero"
    phi0: Array = field(repr=False)
    v: Array = field(repr=False)
    y: Trajectory = field(repr=False)
    q: Trajectory = field(repr=False)
    q0: Array = field(repr=False)
    q0_norm: float = 0.0
    v_norm: float = 0.0
    bound_value: float = 0.0
    converged: bool = False
    iterations: int = 0
    operator_applies: int = 0
    optimality_residual: float = 0.0
    state: HUMState | None = field(default=None, repr=False)
    convergence_log: list[dict] = field(default_factory=list, repr=False)
    problem: ValidatedProblem | None = field(default=None, repr=False)
    ops: CascadeOperators | None = field(default=None, repr=False)


@dataclass
class NullReport:
    """Recomputed null-condition check for a stored control."""

    epsilon: float
    q0_norm: float
    passed: bool
    v_norm: float
    bound_value: float  # 2 sqrt(H * int e^{M/sqrt(t)} |f|^2); C-proxy, reported only
    bound_within: bool
    slack: float


@dataclass
class RatioReport:
    """Empirical observability ratios over random adjoint seeds."""

    n_samples: int
    n_degenerate: int
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

    def homogeneous(self, phi0: Array) -> tuple[Array, CascadeSolution]:
        """v = chi_omega psi of phi0's adjoint pair, and its force-free cascade."""
        self.last = None  # drop the stored cascade before marching another
        pair = solve_adjoint_pair(self.problem, phi0, ops=self.ops)
        v = self.problem.omega.values * pair.psi.fields
        del pair
        return v, solve_cascade(self.problem, v, ops=self.ops,
                                include_force=False, premasked=True)

    def apply(self, phi0: Array) -> Array:
        """Lambda phi0: costate at t = 0 of the force-free cascade."""
        v, casc = self.homogeneous(phi0)
        self.last = (phi0, v, casc)
        self.applies += 1
        return casc.q0

    def affine(self) -> Array:
        """b: costate at t = 0 with zero control and the force on."""
        self.forced = solve_cascade(self.problem, None, ops=self.ops,
                                    include_force=True)
        self.applies += 1
        return self.forced.q0


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise SynthesisError("unknown-variant",
                             f"variant must be one of {VARIANTS}, got {variant!r}")


def _check_epsilon(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise SynthesisError("penalty-nonpositive",
                             f"penalty weight must be positive, got {eps}")
    return eps


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
    _check_variant(variant)
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


def _control_bound(problem: ValidatedProblem, constants=None) -> float:
    """2 sqrt(H int e^{M/sqrt(t)} |f|^2), H from ``constants`` or the problem's."""
    fw = problem.force_weight_integral
    if fw == 0.0:
        return 0.0
    h = (problem.constants if constants is None else constants).cost_h
    if math.isinf(h):
        return math.inf
    return 2.0 * math.sqrt(h * fw)


def _superpose(hom: Trajectory, forced: Trajectory) -> Trajectory:
    """hom + forced, summed into hom's record, which is not read again."""
    hom.fields += forced.fields
    return Trajectory(hom.basis, hom.dt, hom.times, hom.fields,
                      state0=hom.state0 + forced.state0,
                      stateT=hom.stateT + forced.stateT)


def _assemble(syn: _Synthesis, state: HUMState, branch: str, converged: bool,
              optimality_residual: float, log: list[dict]) -> ControlResult:
    """The control of state.phi0 and its forced cascade, by superposition.

    The cascade of v = chi_omega psi with the force on is the forced
    cascade of ``affine`` plus the homogeneous cascade of phi0.  The
    latter is the stored one when phi0 is the seed applied last; it is
    marched only otherwise (conjugate gradients, or a proximal exit that
    stays at an earlier point).  The zero branch has v = 0 and takes the
    forced cascade as it is.
    """
    problem = syn.problem
    basis = problem.basis
    forced = syn.forced
    if branch == "zero":
        v = np.zeros(forced.y.fields.shape)
        y, q = forced.y, forced.q
    else:
        if syn.last is not None and syn.last[0] is state.phi0:
            v, hom = syn.last[1:]
        else:
            v, hom = syn.homogeneous(state.phi0)
        syn.last = None
        y, q = _superpose(hom.y, forced.y), _superpose(hom.q, forced.q)
    cell = problem.grid.dt * basis.cell_volume
    return ControlResult(
        variant=state.variant,
        epsilon=state.epsilon,
        branch=branch,
        phi0=state.phi0,
        v=v,
        y=y,
        q=q,
        q0=q.state0,
        q0_norm=basis.norm(q.state0),
        v_norm=float(np.sqrt(cell * np.sum(v * v))),
        bound_value=_control_bound(problem),
        converged=converged,
        iterations=state.iterations,
        operator_applies=syn.applies,
        optimality_residual=optimality_residual,
        state=state,
        convergence_log=log,
        problem=problem,
        ops=syn.ops,
    )


def minimize_quadratic(
    problem: ValidatedProblem,
    eps: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 300,
    ops: CascadeOperators | None = None,
) -> ControlResult:
    """Conjugate gradient on the quadratic-penalty normal system.

    Solves (Lambda + eps I) phi0 = -b to relative residual tol in the
    domain inner product.  The recorded objective history is the
    quadratic model 1/2 <phi0, (Lambda + eps) phi0> + <b, phi0>, which
    conjugate gradients decreases monotonically.

    Raises
    ------
    SynthesisError
        ``cg-stall`` when the residual plateaus above tolerance for 30
        consecutive iterations, or curvature turns nonpositive; the
        last iterate rides along in the error context.
    """
    eps = _check_epsilon(problem.epsilon if eps is None else eps)
    syn = _Synthesis(problem, ops)
    basis = problem.basis
    log: list[dict] = []

    b = syn.affine()
    bnorm = basis.norm(b)
    jhist = [0.0]
    if bnorm == 0.0:
        state = HUMState(phi0=np.zeros(basis.shape), gradient=b, j_value=0.0,
                         j_history=jhist, iterations=0, epsilon=eps,
                         variant="quadratic")
        return _assemble(syn, state, "zero", True, 0.0, log)

    x = np.zeros(basis.shape)
    r = -b
    p = r.copy()
    rs = basis.inner(r, r)
    res = math.sqrt(rs)
    best, best_iter = res, 0
    converged = False
    iterations = max_iter
    for k in range(1, max_iter + 1):
        ap = syn.apply(p) + eps * p
        pap = basis.inner(p, ap)
        if pap <= 0.0:
            raise SynthesisError(
                "cg-stall", "curvature is nonpositive; the operator lost "
                "symmetry or positivity", iteration=k, curvature=pap, phi0=x)
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = basis.inner(r, r)
        res = math.sqrt(rs_new)
        jq = 0.5 * (basis.inner(b, x) - basis.inner(x, r))
        jhist.append(jq)
        log.append({"phase": "cg", "iteration": k, "residual": res,
                    "objective": jq})
        if res <= tol * bnorm:
            converged = True
            iterations = k
            break
        if res < best * (1.0 - 1e-3):
            best, best_iter = res, k
        elif k - best_iter >= 30:
            raise SynthesisError(
                "cg-stall", "residual plateaued above tolerance",
                iteration=k, residual=res, best_residual=best, phi0=x)
        p = r + (rs_new / rs) * p
        rs = rs_new

    # gradient of the smooth part at x is Lambda x + b = -r - eps x
    state = HUMState(phi0=x, gradient=-r - eps * x, j_value=jhist[-1],
                     j_history=jhist, iterations=iterations, epsilon=eps,
                     variant="quadratic")
    return _assemble(syn, state, "interior", converged, res, log)


def _secular_solve(alphas: np.ndarray, betas: np.ndarray, beta0: float,
                   eps: float):
    """Penalty weight delta with delta ||x(delta)|| = eps on the model.

    x(delta) solves (T + delta I) x = beta0 e1 for the tridiagonal T;
    the product delta ||x(delta)|| grows from 0 to beta0, so a root
    exists exactly when beta0 > eps and T is nonsingular along e1.
    Returns (delta, x) or None when no bracket exists.
    """
    m = len(alphas)
    t = np.diag(alphas)
    if m > 1:
        t += np.diag(betas[:m - 1], 1) + np.diag(betas[:m - 1], -1)
    rhs = np.zeros(m)
    rhs[0] = beta0
    eye = np.eye(m)

    def solve(delta: float) -> np.ndarray:
        return np.linalg.solve(t + delta * eye, rhs)

    def gap(delta: float) -> float:
        return delta * float(np.linalg.norm(solve(delta))) - eps

    lo = hi = max(eps, 1e-12)
    glo = gap(lo)
    while glo > 0.0 and lo > 1e-280:
        lo /= 32.0
        glo = gap(lo)
    if glo > 0.0:
        return None
    ghi = gap(hi)
    while ghi < 0.0 and hi < 1e280:
        hi *= 32.0
        ghi = gap(hi)
    if ghi < 0.0:
        return None
    if glo == 0.0:
        delta = lo
    else:
        delta = _brentq(gap, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200)
    return float(delta), solve(float(delta))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """Root of f in the sign-change bracket [xa, xb] by Brent's method.

    A line-for-line port of scipy's C ``brentq`` (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973): the same
    iterates, tolerance 2 * delta = xtol + rtol |x| and return point, so
    it gives the same bits as ``scipy.optimize.brentq``.  Raises
    ``secular-no-bracket`` when f has the same sign at both ends (a NaN
    end included), and ``secular-no-convergence`` when ``maxiter``
    iterations run out.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SynthesisError(
            "secular-no-bracket", "f(xa) and f(xb) must have different signs",
            bracket=(xa, xb), values=(fpre, fcur))
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise SynthesisError(
        "secular-no-convergence",
        f"Brent's method did not converge in {maxiter} iterations",
        bracket=(xa, xb), iterations=maxiter, last=xcur)


def _lanczos_warm_start(syn: _Synthesis, b: Array, bnorm: float, eps: float,
                        max_dim: int, log: list[dict]):
    """Krylov model of the operator, solved for the balancing penalty.

    Builds an orthonormal (in the domain inner product) Lanczos basis
    from b with full reorthogonalization, solves the secular equation
    on the growing tridiagonal model, and stops once the shifted-system
    residual estimate drops below 1e-10 relative.  Returns the warm
    start x, its image Lambda x, the balancing weight, and the largest
    Ritz value.  x = -sum_i yhat_i v_i over the basis vectors, so Lambda x
    is the same combination of the images Lambda v_i the basis was built
    from, and needs no apply of its own.
    """
    basis = syn.problem.basis
    dim_total = int(np.prod(basis.shape))
    cap = min(max_dim, dim_total)
    vecs = [b / bnorm]
    images = []  # Lambda v_i, before orthogonalization
    alphas: list[float] = []
    betas: list[float] = []
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
        sec = _secular_solve(np.asarray(alphas), np.asarray(betas), bnorm, eps)
        if sec is not None:
            delta, yhat = sec
            resid = bm * abs(yhat[-1])
            log.append({"phase": "lanczos", "dimension": m, "residual": resid,
                        "delta": delta})
            if resid <= 1e-10 * bnorm:
                break
        if bm <= 1e-13 * max(1.0, bnorm):
            break  # invariant subspace: the model is exact
        betas.append(bm)
        vecs.append(w / bm)
    if delta is None or yhat is None:
        raise SynthesisError(
            "synthesis-degenerate",
            "no positive penalty weight balances the norm; the synthesis "
            "operator is degenerate along the affine term",
            epsilon=eps, krylov_dim=len(alphas))
    x = -np.tensordot(yhat, np.asarray(vecs[:len(yhat)]), axes=(0, 0))
    lam_x = -np.tensordot(yhat, np.asarray(images[:len(yhat)]), axes=(0, 0))
    tri = np.diag(alphas)
    if len(alphas) > 1:
        off = np.asarray(betas[:len(alphas) - 1])
        tri += np.diag(off, 1) + np.diag(off, -1)
    ritz = float(np.linalg.eigvalsh(tri).max())
    return x, lam_x, delta, ritz


def minimize_exact(
    problem: ValidatedProblem,
    eps: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    ops: CascadeOperators | None = None,
    krylov_dim: int = 300,
) -> ControlResult:
    """Proximal gradient on the exact-norm penalized functional.

    When ||b|| <= eps the minimizer is phi0 = 0 and the result takes
    the zero branch with v = 0.  Otherwise proximal gradient steps
    phi0 <- shrink(phi0 - gamma grad, gamma eps) run with backtracking
    (halve gamma until sufficient decrease) from the Lanczos warm
    start, and stop when the proximal-mapping norm falls below
    tol (1 + ||phi0||).  On success the optimality condition
    q(0) + eps phi0/||phi0|| = 0 holds within the recorded residual.

    Raises
    ------
    SynthesisError
        ``prox-stall`` on backtracking exhaustion.
    """
    eps = _check_epsilon(problem.epsilon if eps is None else eps)
    syn = _Synthesis(problem, ops)
    basis = problem.basis
    log: list[dict] = []

    b = syn.affine()
    bnorm = basis.norm(b)
    if bnorm <= eps * (1.0 + 1e-12):
        # zero subgradient branch: eps dominates the affine pull
        log.append({"phase": "branch", "norm_b": bnorm, "epsilon": eps})
        state = HUMState(phi0=np.zeros(basis.shape), gradient=b, j_value=0.0,
                         j_history=[0.0], iterations=0, epsilon=eps,
                         variant="exact")
        return _assemble(syn, state, "zero", True, 0.0, log)

    x, lam_x, delta, ritz = _lanczos_warm_start(syn, b, bnorm, eps,
                                                krylov_dim, log)
    log.append({"phase": "secular", "delta": delta,
                "rho": basis.norm(x), "ritz_max": ritz})
    gamma0 = 1.0 / max(ritz, 1e-30)
    gamma = gamma0

    js_x = 0.5 * basis.inner(x, lam_x) + basis.inner(b, x)
    jhist = [js_x + eps * basis.norm(x)]
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
        if stationary and js_z + eps * basis.norm(z) > jhist[-1]:
            # candidate is a roundoff uptick: stop where we stand
            log.append({"phase": "ista", "iteration": it,
                        "prox_norm": prox_norm, "objective": jhist[-1],
                        "step": gamma})
            converged = True
            iterations = it
            break
        x, lam_x, js_x = z, lam_z, js_z
        xnorm = basis.norm(x)
        jhist.append(js_x + eps * xnorm)
        log.append({"phase": "ista", "iteration": it, "prox_norm": prox_norm,
                    "objective": jhist[-1], "step": gamma})
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
    state = HUMState(phi0=x, gradient=lam_x + b, j_value=jhist[-1],
                     j_history=jhist, iterations=iterations, epsilon=eps,
                     variant="exact")
    return _assemble(syn, state, "interior", converged, optimality, log)


def verify_null(result: ControlResult, constants=None,
                slack: float = 1.01) -> NullReport:
    """Recompute the cascade from the stored control and check q(0).

    The pass verdict covers only ||q(0)|| <= slack * eps; the control
    bound 2 sqrt(H * int e^{M/sqrt(t)} |f|^2) is reported alongside but
    carries an unknown geometric constant, so it never fails the check.
    """
    problem = result.problem
    if problem is None:
        raise SynthesisError("detached-result",
                             "result carries no problem to recompute against")
    basis = problem.basis
    casc = solve_cascade(problem, result.v, ops=result.ops, include_force=True,
                         premasked=True)
    q0_norm = basis.norm(casc.q0)
    cell = problem.grid.dt * basis.cell_volume
    v_norm = float(np.sqrt(cell * np.sum(result.v ** 2)))
    bound = _control_bound(problem, constants)
    return NullReport(
        epsilon=result.epsilon,
        q0_norm=q0_norm,
        passed=bool(q0_norm <= slack * result.epsilon),
        v_norm=v_norm,
        bound_value=bound,
        bound_within=bool(v_norm <= bound),
        slack=slack,
    )


def _ratio_stack(problem: ValidatedProblem, phi0s: Array, weights: Array,
                 ops: CascadeOperators) -> list[tuple[float, bool]]:
    """Observability ratios of a (B, *shape) stack of seeds, row by row.

    Each row is the adjoint pair of :func:`solve_adjoint_pair`, and the
    stack marches together on the boxes its masks read.  Both marches run
    ``in_modes``.  phi's ``on_step`` converts each midpoint on the obs box
    only and records chi_obs phi there, which is psi's per-row box source.
    psi's ``on_step`` streams, per row and step, the sum of psi^2 (by Parseval,
    from the modes) and that of omega psi^2 (on omega's box).  No step
    transforms a full grid and no (Nt, *shape) field is stored.  Returns
    (ratio, degenerate) per row; a row whose control-window energy
    underflows is degenerate.
    """
    grid = problem.grid
    basis = problem.basis
    obs, omega = problem.obs, problem.omega
    obs_values = obs.values[obs.box]
    omega_values = omega.values[omega.box].ravel()
    parseval = basis.mode_volume / basis.cell_volume

    def observed(j: int, modes: Array) -> Array:
        return obs_values * basis.from_modes(modes, obs.box)

    def energies(j: int, modes: Array) -> Array:
        rows = len(modes)
        on_omega = basis.from_modes(modes, omega.box).reshape(rows, -1)
        modes = modes.reshape(rows, -1)
        return np.array([
            parseval * np.einsum("bi,bi->b", modes, modes),
            np.einsum("i,bi,bi->b", omega_values, on_omega, on_omega)])

    phi = solve_forward(grid, ops.costate_schedule, phi0s, on_step=observed,
                        in_modes=True)
    psi = solve_backward(grid, ops.state_schedule, np.zeros(phi0s.shape),
                         phi.fields, on_step=energies, source_box=obs.box,
                         in_modes=True)
    cell = grid.dt * basis.cell_volume
    nums = cell * (weights @ psi.fields[:, 0])
    dens = cell * np.sum(psi.fields[:, 1], axis=0)
    return [(math.nan, True) if den <= 1e-300 else (float(num / den), False)
            for num, den in zip(nums, dens)]


def observability_ratio_sample(
    problem: ValidatedProblem,
    n_samples: int = 50,
    seed: int = 0,
    mode_cap: int | None = None,
    ops: CascadeOperators | None = None,
) -> RatioReport:
    """Empirical spread of the weighted observability ratio.

    Draws unit-norm seeds with random spectral decay (coefficients
    g_m rank^-p, p uniform on [0.5, 2.5]), solves the adjoint pair,
    and reports R = int_Q e^{-M/sqrt(t)} |psi|^2 / int_{Q_omega} |psi|^2
    per draw.  ``mode_cap`` pins the number of active modes per axis so
    the same seed reproduces the same continuum seeds across grid
    refinements.  Degenerate draws (a zero seed or an underflowing
    denominator) are skipped and reported, never asserted against.

    Every seed is drawn first; then consecutive draws march together in
    stacks of as many rows as RATIO_STACK_CAP_BYTES allows for phi's
    obs-box record (a zero seed leaves its stack).  A stack transforms
    only what the masks read, on their boxes, and streams psi's energies
    from its sine coefficients (see :func:`_ratio_stack`): the full-grid
    transforms are the seeds' synthesis and each stack's start and end
    states.

    Raises
    ------
    SynthesisError
        ``sample-count`` when ``n_samples < 1``, ``mode-cap`` when the
        mode cap is below one.
    """
    if n_samples < 1:
        raise SynthesisError("sample-count",
                             f"need at least one sample, got {n_samples}")
    ops = ops or linearized_operators(problem)
    basis = problem.basis
    shape = basis.shape
    cap = min(shape) if mode_cap is None else min(int(mode_cap), min(shape))
    if cap < 1:
        raise SynthesisError("mode-cap", f"mode cap must be >= 1, got {cap}")
    rng = np.random.default_rng(np.random.Philox(seed))
    rate_m = problem.constants.rate_m
    weights = np.exp(-rate_m / np.sqrt(problem.grid.times))

    decays, seeds = [], []
    for _ in range(n_samples):
        decays.append(rng.uniform(0.5, 2.5))
        seeds.append(basis.random_smooth(rng, decays[-1], cap))
    norms = [basis.norm(phi0) for phi0 in seeds]
    record_row = 8 * problem.grid.n_steps * problem.obs.values[problem.obs.box].size
    rows = max(1, RATIO_STACK_CAP_BYTES // record_row)
    results: dict[int, tuple[float, bool]] = {}
    for first in range(0, n_samples, rows):
        live = [i for i in range(first, min(first + rows, n_samples))
                if norms[i] != 0.0]
        if live:
            stack = np.array([seeds[i] / norms[i] for i in live])
            results.update(zip(live, _ratio_stack(problem, stack, weights, ops)))

    samples: list[dict] = []
    ratios: list[float] = []
    for i, decay in enumerate(decays):
        ratio, degenerate = results.get(i, (math.nan, True))
        samples.append({"index": i, "decay": decay, "ratio": ratio,
                        "status": "degenerate-psi" if degenerate else "ok"})
        if not degenerate:
            ratios.append(ratio)

    h = problem.constants.cost_h
    max_ratio = max(ratios) if ratios else math.nan
    median_ratio = float(np.median(ratios)) if ratios else math.nan
    if ratios and not math.isinf(h):
        empirical_c = max_ratio / h
    else:
        empirical_c = 0.0 if math.isinf(h) else math.nan
    return RatioReport(
        n_samples=n_samples,
        n_degenerate=n_samples - len(ratios),
        mode_cap=cap,
        seed=seed,
        rate_m=rate_m,
        h_value=h,
        max_ratio=max_ratio,
        median_ratio=median_ratio,
        empirical_c=empirical_c,
        samples=samples,
    )
