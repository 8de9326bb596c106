"""Frozen linearizations and the outer fixed-point iteration.

Freezing the reaction F(u, grad u, hess u) at a state z splits it two
ways.  The state leg carries the path-averaged secant coefficients

    G1 = int_0^1 F_u(tau z, tau grad z, tau hess z) dtau,

and likewise G2 (gradient slot) and G3 (Hessian slot), which satisfy
F(z) - F(0,0,0) = G1 z + G2 . grad z + G3 : hess z exactly, so a fixed
point of the frozen problem solves the semilinear one.  The costate leg
carries the pointwise tangent coefficients F_u, F_p, F_r at z, whose
discrete transpose is the divergence-form adjoint the costate equation
wants.  The outer loop is successive substitution: linearize at z,
synthesize the penalized control, advance z to the controlled state,
and stop when the a-posteriori bound of the contraction mapping theorem,
||z_k - z*|| <= q/(1 - q) ||z_k - z_{k-1}|| with q estimated from the
observed increment ratios, puts z within tol of the fixed point in the
discrete L2(0,T;H2) norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade_sentinel import CascadeOperators
from .errors import IterationError
from .hum_synthesis import ControlResult, minimize_exact
from .nonlinearity import NonlinearitySpec
from .pde_engine import Schedule, Trajectory, make_schedule
from .problem_setup import ValidatedProblem

__all__ = [
    "FrozenLinearization",
    "SemilinearResult",
    "eval_g",
    "ftc_residual",
    "freeze_linearization",
    "tangent_schedule",
    "picard_insensitize",
]

Array = np.ndarray


def _gauss_legendre(n: int) -> tuple[Array, Array]:
    """n-node Gauss-Legendre rule on [-1, 1] by Golub-Welsch.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence and the weights twice the squared first components of its
    eigenvectors; both are then made symmetric about 0 and the weights
    summed to 2 exactly, as ``numpy.polynomial.legendre.leggauss`` does.
    """
    k = np.arange(1.0, n)
    x, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    w = vecs[0] ** 2
    x, w = 0.5 * (x - x[::-1]), w + w[::-1]
    return x, w * (2.0 / w.sum())


# 16-node Gauss-Legendre on [0, 1]: exact for polynomial F up to degree 31
_GL_X, _GL_W = _gauss_legendre(16)
_TAU = 0.5 * (_GL_X + 1.0)
_TAU_W = 0.5 * _GL_W


@dataclass
class FrozenLinearization:
    """Secant and tangent coefficient fields frozen at a state z.

    ``g2`` and ``tangent_p`` are None when F does not read the gradient,
    ``g3`` and ``tangent_r`` when it does not read the Hessian.
    """

    g1: Array = field(repr=False)          # (Nt, *shape)
    g2: Array | None = field(repr=False)   # (Nt, dim, *shape)
    g3: Array | None = field(repr=False)   # (Nt, dim, dim, *shape)
    tangent_u: Array = field(repr=False)   # F_u at (z, grad z, hess z)
    tangent_p: Array | None = field(repr=False)
    tangent_r: Array | None = field(repr=False)
    sup_certificate: float                 # max |G1| + sum|G2| + sum|G3| seen
    ops: CascadeOperators | None = field(default=None, repr=False)  # both legs


@dataclass
class SemilinearResult:
    """Outcome of the outer fixed-point iteration.

    ``final`` is the last control solve: its ``q0_norm`` is the loop's,
    and its ``problem`` holds the penalty level and the force.  Only a
    converged loop returns one; :func:`picard_insensitize` raises
    otherwise.  Each ``history`` entry carries the iteration's
    ``increment`` and the ``error_estimate`` the loop stopped on (see
    :func:`picard_insensitize`).
    """

    iterations: int                 # control solves performed
    increments: list[float]
    z_norms: list[float]
    contraction_factors: list[float]
    r1_radius: float
    inside_ball: bool
    final: ControlResult = field(repr=False)
    frozen: FrozenLinearization = field(repr=False)
    history: list[dict] = field(repr=False, default_factory=list)


def _zero_trajectory(problem: ValidatedProblem) -> Trajectory:
    grid = problem.grid
    shape = grid.shape
    return Trajectory(
        basis=problem.basis, dt=grid.dt,
        fields=np.zeros((grid.n_steps,) + shape),
        state0=np.zeros(shape), stateT=np.zeros(shape),
    )


def _time_leading(fu: Array, fp: Array | None,
                  fr: Array | None) -> tuple[Array, Array | None, Array | None]:
    """Partials of a stack reordered to (Nt, ...) node-major layout."""
    return (fu, None if fp is None else np.ascontiguousarray(np.moveaxis(fp, 0, 1)),
            None if fr is None else np.ascontiguousarray(np.moveaxis(fr, 2, 0)))


def _require_finite(nonlinearity: NonlinearitySpec, *arrays: Array | None) -> None:
    for arr in arrays:
        if arr is not None and not np.all(np.isfinite(arr)):
            raise IterationError(
                "nonlinearity-eval-failure",
                f"{nonlinearity.name}: non-finite linearization coefficients",
            )


def _partials(nonlinearity: NonlinearitySpec, u: Array, p: Array | None,
              r: Array | None) -> tuple[Array, Array | None, Array | None]:
    """F_u, F_p, F_r at the jet (u, p, r); None for a slot F does not read."""
    return (nonlinearity.f_u(u, p, r),
            None if p is None else nonlinearity.f_p(u, p, r),
            None if r is None else nonlinearity.f_r(u, p, r))


def _eval_tangent(nonlinearity: NonlinearitySpec,
                  *jet: Array | None) -> tuple[Array, Array | None, Array | None]:
    """Pointwise tangent coefficients F_u, F_p, F_r at the jet (u, p, r)."""
    tangent = _time_leading(*_partials(nonlinearity, *jet))
    _require_finite(nonlinearity, *tangent)
    return tangent


def _l1(fu: Array, fp: Array | None, fr: Array | None) -> Array:
    """Pointwise l1 magnitude |F_u| + sum |F_p| + sum |F_r| of a family."""
    return np.abs(fu) + (0.0 if fp is None else np.abs(fp).sum(axis=1)) \
        + (0.0 if fr is None else np.abs(fr).sum(axis=(1, 2)))


def eval_g(nonlinearity: NonlinearitySpec, z: Trajectory) -> FrozenLinearization:
    """Path-averaged secant and pointwise tangent coefficients at z.

    The secant fields come from 16-node Gauss-Legendre quadrature of
    the partials along the ray tau (z, grad z, hess z), tau in [0, 1];
    the tangent fields are the partials at tau = 1.  Each partial runs
    once per quadrature node on the whole space-time stack.  The jet and
    both families carry only the slots F reads: a kind without ``f_p``
    or ``f_r`` computes no gradient or Hessian, and its G2, G3 and
    tangent fields for them are None.  The certificate is the largest
    pointwise l1 magnitude over both families.

    Raises
    ------
    IterationError
        ``nonlinearity-eval-failure`` when any evaluation returns a
        non-finite value.
    """
    jet = nonlinearity.jet(z.basis, z.fields)
    secant = [None if a is None else np.zeros(a.shape) for a in jet]
    for tau, w in zip(_TAU, _TAU_W):
        ray = [None if a is None else tau * a for a in jet]
        for acc, val in zip(secant, _partials(nonlinearity, *ray)):
            if acc is not None:
                acc += w * val
    g1, g2, g3 = _time_leading(*secant)
    _require_finite(nonlinearity, g1, g2, g3)
    tu, tp, tr = _eval_tangent(nonlinearity, *jet)
    cert = float(max(_l1(g1, g2, g3).max(), _l1(tu, tp, tr).max())) \
        if len(z.fields) else 0.0
    return FrozenLinearization(
        g1=g1, g2=g2, g3=g3,
        tangent_u=tu, tangent_p=tp, tangent_r=tr,
        sup_certificate=cert,
    )


def ftc_residual(nonlinearity: NonlinearitySpec, z: Trajectory,
                 frozen: FrozenLinearization | None = None) -> float:
    """Max grid defect of F(z) - F(0,0,0) = G1 z + G2.grad z + G3:hess z.

    This identity is what makes the frozen state equation agree with
    the semilinear one at a fixed point; quadrature is its only error
    source, so the residual sits at 1e-10 or below for smooth entries.
    A slot F does not read contributes no term.
    """
    if frozen is None:
        frozen = eval_g(nonlinearity, z)
    u, p, r = nonlinearity.jet(z.basis, z.fields)
    direct = nonlinearity.f(u, p, r) - nonlinearity.f0
    # the frozen fields are time-leading; the jet puts components first
    recon = frozen.g1 * u \
        + (0.0 if p is None else np.einsum("ti...,it...->t...", frozen.g2, p)) \
        + (0.0 if r is None else np.einsum("tij...,ijt...->t...", frozen.g3, r))
    return float(np.abs(direct - recon).max(initial=0.0))


def freeze_linearization(problem: ValidatedProblem,
                         z: Trajectory) -> FrozenLinearization:
    """eval_g plus both legs' operators: base plus frozen coefficients."""
    frozen = eval_g(problem.nonlinearity, z)
    grid, coeffs = problem.grid, problem.coefficients
    frozen.ops = CascadeOperators(
        make_schedule(grid, coeffs, frozen.g1, frozen.g2, frozen.g3),
        make_schedule(grid, coeffs, frozen.tangent_u, frozen.tangent_p,
                      frozen.tangent_r),
        -problem.nonlinearity.f0)
    return frozen


def tangent_schedule(problem: ValidatedProblem, z: Trajectory) -> Schedule:
    """Base plus pointwise tangent coefficients at z, costate-leg form.

    Evaluates only the partials at z, not the secant quadrature.
    """
    nl = problem.nonlinearity
    tangent = _eval_tangent(nl, *nl.jet(z.basis, z.fields))
    return make_schedule(problem.grid, problem.coefficients, *tangent)


def _error_estimate(contraction: list[float], inc: float) -> float:
    """A-posteriori distance to the fixed point after an increment inc.

    A map contracting by q puts its k-th iterate within q/(1 - q) inc_k
    of the fixed point (Banach).  q is taken as the larger of the last two
    observed ratios in ``contraction``; with fewer than two, or when that
    exceeds 1/2, the estimate is inc itself, so it never exceeds inc.
    """
    if len(contraction) >= 2:
        q = max(contraction[-2:])
        if q <= 0.5:
            return q / (1.0 - q) * inc
    return inc


def _frozen_equal(a: FrozenLinearization, b: FrozenLinearization) -> bool:
    return (np.array_equal(a.g1, b.g1)
            and np.array_equal(a.g2, b.g2)
            and np.array_equal(a.g3, b.g3)
            and np.array_equal(a.tangent_u, b.tangent_u)
            and np.array_equal(a.tangent_p, b.tangent_p)
            and np.array_equal(a.tangent_r, b.tangent_r))


def picard_insensitize(
    problem: ValidatedProblem,
    tol: float = 1e-8,
    max_iter: int = 25,
    hum_tol: float = 1e-8,
) -> SemilinearResult:
    """Successive substitution on the frozen control problems.

    Starts from z = 0, freezes the linearization, synthesizes the
    exact-norm penalized control (:func:`minimize_exact` at ``hum_tol``,
    whose ``converged`` flag each ``history`` entry records as
    ``hum_converged``), and advances z to the controlled state.  It
    stops when the estimated distance to the fixed point falls below
    tol (1 + ||z||) in the discrete L2(0,T;H2) norm, or when the
    linearization stops changing (a z-independent reaction converges
    after one solve, so a converged loop has always solved at least
    once).  The estimate, each ``history`` entry's ``error_estimate``,
    is q/(1 - q) times the increment, q the larger of the last two
    increment ratios; while fewer than two exist, or q > 1/2, it is the
    increment itself.  So no loop runs longer than an increment test
    would.  The radius report echoes the a-priori ball: R1 is the first iterate's size ||z||_{L2H2} +
    ||q||_{L2H2}, doubled as margin.  Each ``history`` entry records
    the secant identity's ``ftc_residual`` at that iteration's z, against
    the linearization frozen there.

    Raises
    ------
    IterationError
        ``picard-divergence`` after five consecutive increment growths;
        ``maxIter-exceeded`` when the budget runs out, with the full
        increment history in the context (no fabricated success).
    """
    eps = problem.epsilon
    nl = problem.nonlinearity
    z = _zero_trajectory(problem)
    frozen = None
    result = None
    increments: list[float] = []
    z_norms: list[float] = []
    contraction: list[float] = []
    history: list[dict] = []
    grow_count = 0
    converged = False

    sizes: list[float] = []

    for k in range(1, max_iter + 1):
        candidate = freeze_linearization(problem, z)
        # the secant identity at z, against the linearization built at z
        ftc = ftc_residual(nl, z, candidate)
        if frozen is not None and _frozen_equal(candidate, frozen):
            # the map no longer depends on z: the next state would repeat
            increments.append(0.0)
            z_norms.append(z_norms[-1] if z_norms else 0.0)
            history.append({"iteration": k, "increment": 0.0,
                            "error_estimate": 0.0,
                            "note": "linearization-stationary",
                            "ftc_residual": ftc})
            converged = True
            break
        if frozen is not None:
            # retire the previous linearization: keep one set of step factors
            frozen.ops.release_factors()
        frozen = candidate
        result = minimize_exact(problem, tol=hum_tol, ops=frozen.ops)
        z_new = result.y
        # both norms sum the records' sine coefficients before z_new's
        # record is read in node values; q's is never converted
        znorm = z_new.norm_l2h2()
        sizes.append(znorm + result.q.norm_l2h2())
        inc = math.sqrt(problem.grid.dt
                        * problem.basis.h2_norm_sq(z_new.fields - z.fields))
        increments.append(inc)
        z_norms.append(znorm)
        if len(increments) >= 2 and increments[-2] > 0.0:
            contraction.append(inc / increments[-2])
        estimate = _error_estimate(contraction, inc)
        history.append({
            "iteration": k, "increment": inc, "error_estimate": estimate,
            "z_norm": znorm, "q0_norm": result.q0_norm,
            "v_norm": result.v_norm, "hum_converged": result.converged,
            "certificate": frozen.sup_certificate, "ftc_residual": ftc,
        })
        if estimate <= tol * (1.0 + znorm):
            converged = True
            break
        if len(increments) >= 2 and inc > increments[-2]:
            grow_count += 1
            if grow_count >= 5:
                raise IterationError(
                    "picard-divergence",
                    "increment grew five times in a row",
                    increments=increments, history=history, epsilon=eps)
        else:
            grow_count = 0
        z = z_new

    if not converged:
        raise IterationError(
            "maxIter-exceeded",
            f"no fixed point within {max_iter} iterations",
            increments=increments, history=history, epsilon=eps,
            q0_norm=None if result is None else result.q0_norm)

    # first-iterate stability constant, doubled as ball margin
    r1 = 2.0 * sizes[0]
    return SemilinearResult(
        iterations=len(sizes),
        increments=increments,
        z_norms=z_norms,
        contraction_factors=contraction,
        r1_radius=r1,
        inside_ball=all(s <= r1 for s in sizes),
        final=result,
        frozen=frozen,
        history=history,
    )
