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
and stop when the update stalls in the discrete L2(0,T;H2) norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade_sentinel import CascadeOperators
from .errors import IterationError, SetupError
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
    "lipschitz_bound",
    "picard_insensitize",
]

Array = np.ndarray

# 16-node Gauss-Legendre on [0, 1]: exact for polynomial F up to degree 31
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_TAU = 0.5 * (_GL_X + 1.0)
_TAU_W = 0.5 * _GL_W


@dataclass
class FrozenLinearization:
    """Secant and tangent coefficient fields frozen at a state z."""

    g1: Array = field(repr=False)          # (Nt, *shape)
    g2: Array = field(repr=False)          # (Nt, dim, *shape)
    g3: Array = field(repr=False)          # (Nt, dim, dim, *shape)
    tangent_u: Array = field(repr=False)   # F_u at (z, grad z, hess z)
    tangent_p: Array = field(repr=False)
    tangent_r: Array = field(repr=False)
    f0: float                              # F(0,0,0)
    sup_certificate: float                 # max |G1| + sum|G2| + sum|G3| seen
    ops: CascadeOperators | None = field(default=None, repr=False)  # both legs


@dataclass
class SemilinearResult:
    """Outcome of the outer fixed-point iteration."""

    converged: bool
    iterations: int                 # control solves performed
    epsilon: float
    q0_norm: float
    increments: list[float]
    z_norms: list[float]
    contraction_factors: list[float]
    l1_proxy: float
    r1_radius: float
    inside_ball: bool
    weighted_force_norm: float
    final: ControlResult = field(repr=False)
    frozen: FrozenLinearization = field(repr=False)
    history: list[dict] = field(repr=False, default_factory=list)


def _zero_trajectory(problem: ValidatedProblem) -> Trajectory:
    grid = problem.grid
    shape = grid.shape
    return Trajectory(
        basis=problem.basis, dt=grid.dt, times=grid.times,
        fields=np.zeros((grid.n_steps,) + shape),
        state0=np.zeros(shape), stateT=np.zeros(shape),
    )


def _jet(z: Trajectory) -> tuple[Array, Array, Array]:
    """(z, grad z, hess z) over all midpoint nodes, component axes leading.

    Shapes (Nt, *shape), (dim, Nt, *shape) and (dim, dim, Nt, *shape):
    the layout the partials take, with the time axis as one more
    pointwise axis.
    """
    return z.fields, z.basis.gradient(z.fields), z.basis.hessian(z.fields)


def _time_leading(fu: Array, fp: Array, fr: Array) -> tuple[Array, Array, Array]:
    """Partials of a stack reordered to (Nt, ...) node-major layout."""
    return (fu, np.ascontiguousarray(np.moveaxis(fp, 0, 1)),
            np.ascontiguousarray(np.moveaxis(fr, 2, 0)))


def _require_finite(nonlinearity: NonlinearitySpec, *arrays: Array) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise IterationError(
                "nonlinearity-eval-failure",
                f"{nonlinearity.name}: non-finite linearization coefficients",
            )


def _eval_tangent(nonlinearity: NonlinearitySpec, u: Array, p: Array,
                  r: Array) -> tuple[Array, Array, Array]:
    """Pointwise tangent coefficients F_u, F_p, F_r at the jet (u, p, r)."""
    tangent = _time_leading(nonlinearity.f_u(u, p, r), nonlinearity.f_p(u, p, r),
                            nonlinearity.f_r(u, p, r))
    _require_finite(nonlinearity, *tangent)
    return tangent


def eval_g(nonlinearity: NonlinearitySpec, z: Trajectory) -> FrozenLinearization:
    """Path-averaged secant and pointwise tangent coefficients at z.

    The secant fields come from 16-node Gauss-Legendre quadrature of
    the partials along the ray tau (z, grad z, hess z), tau in [0, 1];
    the tangent fields are the partials at tau = 1.  Each partial runs
    once per quadrature node on the whole space-time stack.  The
    certificate is the largest pointwise l1 magnitude over both families.

    Raises
    ------
    IterationError
        ``nonlinearity-eval-failure`` when any evaluation returns a
        non-finite value.
    """
    u, p, r = _jet(z)
    g1 = np.zeros(u.shape)
    g2 = np.zeros(p.shape)
    g3 = np.zeros(r.shape)
    for tau, w in zip(_TAU, _TAU_W):
        g1 += w * nonlinearity.f_u(tau * u, tau * p, tau * r)
        g2 += w * nonlinearity.f_p(tau * u, tau * p, tau * r)
        g3 += w * nonlinearity.f_r(tau * u, tau * p, tau * r)
    g1, g2, g3 = _time_leading(g1, g2, g3)
    _require_finite(nonlinearity, g1, g2, g3)
    tu, tp, tr = _eval_tangent(nonlinearity, u, p, r)
    secant_mag = np.abs(g1) + np.abs(g2).sum(axis=1) \
        + np.abs(g3).sum(axis=(1, 2))
    tangent_mag = np.abs(tu) + np.abs(tp).sum(axis=1) \
        + np.abs(tr).sum(axis=(1, 2))
    cert = float(max(secant_mag.max(), tangent_mag.max())) if len(u) else 0.0
    return FrozenLinearization(
        g1=g1, g2=g2, g3=g3,
        tangent_u=tu, tangent_p=tp, tangent_r=tr,
        f0=nonlinearity.f0, sup_certificate=cert,
    )


def ftc_residual(nonlinearity: NonlinearitySpec, z: Trajectory,
                 frozen: FrozenLinearization | None = None) -> float:
    """Max grid defect of F(z) - F(0,0,0) = G1 z + G2.grad z + G3:hess z.

    This identity is what makes the frozen state equation agree with
    the semilinear one at a fixed point; quadrature is its only error
    source, so the residual sits at 1e-10 or below for smooth entries.
    """
    if frozen is None:
        frozen = eval_g(nonlinearity, z)
    u, p, r = _jet(z)
    direct = nonlinearity.f(u, p, r) - nonlinearity.f0
    # the frozen fields are time-leading; the jet puts components first
    recon = frozen.g1 * u \
        + np.einsum("ti...,it...->t...", frozen.g2, p) \
        + np.einsum("tij...,ijt...->t...", frozen.g3, r)
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
        -frozen.f0)
    return frozen


def tangent_schedule(problem: ValidatedProblem, z: Trajectory) -> Schedule:
    """Base plus pointwise tangent coefficients at z, costate-leg form.

    Evaluates only the partials at z, not the secant quadrature.
    """
    tangent = _eval_tangent(problem.nonlinearity, *_jet(z))
    return make_schedule(problem.grid, problem.coefficients, *tangent)


def lipschitz_bound(nonlinearity: NonlinearitySpec,
                    box: tuple[float, float, float] | None = None,
                    n_samples: int = 10_000, seed: int = 0) -> float:
    """Sampled sup of |F_u| + sum|F_p| + sum|F_r| over a box.

    Uses a scrambled Halton sample of the (u, p, r) box plus its center
    and asserts the result against the declared Lipschitz payload.

    Raises
    ------
    SetupError
        ``declared-bound-violated`` when the sampled bound exceeds the
        declaration.
    """
    if box is None:
        box = nonlinearity.box if nonlinearity.box is not None else (5.0, 5.0, 5.0)
    from scipy.stats import qmc  # heavy import, needed by this check only

    dim = nonlinearity.dim
    d = 1 + dim + dim * dim
    halton = qmc.Halton(d=d, scramble=True, seed=seed)
    pts = halton.random(n_samples)
    widths = np.concatenate([
        np.full(1, box[0]), np.full(dim, box[1]), np.full(dim * dim, box[2]),
    ])
    pts = (2.0 * pts - 1.0) * widths
    pts = np.vstack([pts, np.zeros(d)])  # the center carries many extrema
    u = pts[:, 0]
    p = np.ascontiguousarray(pts[:, 1:1 + dim].T)
    r = np.ascontiguousarray(pts[:, 1 + dim:].T.reshape(dim, dim, -1))
    mag = np.abs(nonlinearity.f_u(u, p, r)) \
        + np.abs(nonlinearity.f_p(u, p, r)).sum(axis=0) \
        + np.abs(nonlinearity.f_r(u, p, r)).sum(axis=(0, 1))
    bound = float(mag.max())
    if bound > nonlinearity.lipschitz_declared * (1.0 + 1e-9) + 1e-12:
        raise SetupError(
            "declared-bound-violated",
            f"{nonlinearity.name}: sampled Lipschitz bound {bound} exceeds "
            f"declared {nonlinearity.lipschitz_declared}",
            sampled=bound, declared=nonlinearity.lipschitz_declared,
        )
    return bound


def _frozen_equal(a: FrozenLinearization, b: FrozenLinearization) -> bool:
    return (a.f0 == b.f0
            and np.array_equal(a.g1, b.g1)
            and np.array_equal(a.g2, b.g2)
            and np.array_equal(a.g3, b.g3)
            and np.array_equal(a.tangent_u, b.tangent_u)
            and np.array_equal(a.tangent_p, b.tangent_p)
            and np.array_equal(a.tangent_r, b.tangent_r))


def picard_insensitize(
    problem: ValidatedProblem,
    eps: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 25,
    hum_tol: float = 1e-8,
    hum_max_iter: int = 2000,
    l1_proxy: float | None = None,
) -> SemilinearResult:
    """Successive substitution on the frozen control problems.

    Starts from z = 0, freezes the linearization, synthesizes the
    exact-norm penalized control, and advances z to the controlled
    state, stopping when the increment falls below tol (1 + ||z||) in
    the discrete L2(0,T;H2) norm or the linearization stops changing
    (a z-independent reaction converges after one solve).  The radius
    report echoes the a-priori ball: R1 = L1 (1 + weighted force norm)
    with L1 either supplied or taken from the first iterate's own
    stability ratio, doubled as margin.  Each ``history`` entry records
    the secant identity's ``ftc_residual`` at that iteration's z, against
    the linearization frozen there.

    Raises
    ------
    IterationError
        ``picard-divergence`` after five consecutive increment growths;
        ``maxIter-exceeded`` when the budget runs out, with the full
        increment history in the context (no fabricated success).
    """
    eps = problem.epsilon if eps is None else float(eps)
    nl = problem.nonlinearity
    z = _zero_trajectory(problem)
    prev_frozen: FrozenLinearization | None = None
    frozen = None
    result = None
    increments: list[float] = []
    z_norms: list[float] = []
    contraction: list[float] = []
    history: list[dict] = []
    grow_count = 0
    converged = False

    wf = math.sqrt(problem.force_weight_integral)
    r1 = math.inf if l1_proxy is None else l1_proxy * (1.0 + wf)
    sizes: list[float] = []

    for k in range(1, max_iter + 1):
        candidate = freeze_linearization(problem, z)
        # the secant identity at z, against the linearization built at z
        ftc = ftc_residual(nl, z, candidate)
        if prev_frozen is not None and _frozen_equal(candidate, prev_frozen):
            # the map no longer depends on z: the next state would repeat
            increments.append(0.0)
            z_norms.append(z_norms[-1] if z_norms else 0.0)
            history.append({"iteration": k, "increment": 0.0,
                            "note": "linearization-stationary",
                            "ftc_residual": ftc})
            converged = True
            break
        if frozen is not None:
            # retire the previous linearization: keep one set of step factors
            frozen.ops.release_factors()
        frozen = candidate
        result = minimize_exact(problem, eps, tol=hum_tol,
                                max_iter=hum_max_iter, ops=frozen.ops)
        z_new = result.y
        inc = math.sqrt(problem.grid.dt
                        * problem.basis.h2_norm_sq(z_new.fields - z.fields))
        znorm = z_new.norm_l2h2()
        size = znorm + result.q.norm_l2h2()
        sizes.append(size)
        if l1_proxy is None and k == 1:
            # first-iterate stability constant, doubled as ball margin
            r1 = 2.0 * size
        increments.append(inc)
        z_norms.append(znorm)
        if len(increments) >= 2 and increments[-2] > 0.0:
            contraction.append(inc / increments[-2])
        history.append({
            "iteration": k, "increment": inc, "z_norm": znorm,
            "q0_norm": result.q0_norm, "v_norm": result.v_norm,
            "hum_converged": result.converged,
            "certificate": frozen.sup_certificate, "ftc_residual": ftc,
        })
        if inc <= tol * (1.0 + znorm):
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
        prev_frozen = candidate

    if not converged:
        raise IterationError(
            "maxIter-exceeded",
            f"no fixed point within {max_iter} iterations",
            increments=increments, history=history, epsilon=eps,
            q0_norm=None if result is None else result.q0_norm)

    if result is None or frozen is None:
        # zero reaction short-circuits before any solve only if max_iter
        # admitted none; guard for the k = 1 stationary impossibility
        raise IterationError("maxIter-exceeded",
                             "iteration budget admitted no control solve",
                             increments=increments, history=history)

    l1 = (r1 / (1.0 + wf)) if l1_proxy is None else l1_proxy
    inside = all(s <= r1 for s in sizes)
    return SemilinearResult(
        converged=True,
        iterations=len(sizes),
        epsilon=eps,
        q0_norm=result.q0_norm,
        increments=increments,
        z_norms=z_norms,
        contraction_factors=contraction,
        l1_proxy=l1,
        r1_radius=r1,
        inside_ball=inside,
        weighted_force_norm=wf,
        final=result,
        frozen=frozen,
        history=history,
    )
