"""Crank-Nicolson marching for fourth-order parabolic operators.

The operator is A = Lap^2 + a0 + b0 . grad + b : hess + a1 Lap with the
boundary conditions u = Lap u = 0, discretized in the sine basis.  One
forward step reads

    (I + (dt/2) A_j) u_{j+1} = (I - (dt/2) A_j) u_j + dt * g_j,

with coefficients and sources frozen at the midpoint node t_j.  The
backward solver marches the exact matrix transpose of the same step, so
the summed space-time duality identity

    <y_Nt, q_Nt> - <y_0, q_0> = dt sum_j <g_j, qbar_j> - dt sum_j <h_j, ybar_j>

holds to rounding (qbar, ybar are the stored midpoint averages).

Three paths solve the step.  When every node of a march has spatially
uniform a0 and a1, a uniform diagonal b and no b0 (an all-zero schedule
included), A is diagonal in the sine basis with symbol

    lambda(k) = |kappa|^4 + a0 - a1 |kappa|^2 - sum_i b_ii kappa_i^2,

and the march is the exact per-mode recurrence
u^_{j+1} = r u^_j + dt/(1 + c lambda) g^_j with r = (1 - c lambda)/(1 + c lambda),
c = dt/2: one transform of the source in and one of the midpoint average
out per step, at any stiffness.  The symbol is symmetric, so the backward
march is the same recurrence.

Any other 1D march (b0, or x-dependent and frozen coefficients) is solved
in sine coefficients too.  With T and F the to/from-mode matrices,
D = 1 + c |kappa|^4 and Lo_j the lower-order part at node j, the step
matrix in modes is D M_j with the well-conditioned M_j = I + c D^-1 T Lo_j F.
Each distinct node's M_j is LU-factored once and the factors are cached
on the schedule, so every march of a frozen linearization reuses them.
A step is then the midpoint solve mid_j = 1/2 M_j^-1 D^-1 (2 u^_j + dt g^_j),
u^_{j+1} = 2 mid_j - u^_j; the backward march solves with M_j^T
(mid_j = 1/2 D^-1 M_j^-T (2 u^_j + dt g^_j)), the exact transpose, and no
physical-space right-hand side (I - c A) u is formed.  A factor stack
larger than LU_STACK_CAP_BYTES is not built.

2D marches off the diagonal path, and 1D marches over that cap, form the
right-hand side in physical space and fix the lower-order remainder by a
Richardson iteration preconditioned with the bilaplacian part.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, lapack, lu_factor

from .errors import EngineError
from .nonlinearity import NonlinearitySpec
from .problem_setup import CoefficientField, Grid
from .spectral import SineBasis

__all__ = [
    "NodeCoefficients",
    "StaticSchedule",
    "ListSchedule",
    "SpatialOperator",
    "Trajectory",
    "assemble_operator",
    "make_schedule",
    "solve_forward",
    "solve_backward",
    "solve_forward_nonlinear",
    "duality_residual",
    "check_energy_growth",
    "EnergyReport",
]

Array = np.ndarray

# Largest stack of 1D mode-space LU factors a schedule may cache; a march
# whose stack would be bigger keeps the Richardson inner solve.
LU_STACK_CAP_BYTES = 64 * 2**20


@dataclass
class NodeCoefficients:
    """Lower-order coefficient arrays frozen at one midpoint node."""

    a0: Array | None = None
    b0: Array | None = None   # (dim, *shape)
    b: Array | None = None    # (dim, dim, *shape)
    a1: Array | None = None

    @property
    def all_zero(self) -> bool:
        return self.a0 is None and self.b0 is None and self.b is None and self.a1 is None


class _FactorCache:
    """A schedule's 1D mode-space LU factors, kept between marches."""

    mode_lu: "_ModeLU | None" = None

    def release_factors(self) -> None:
        """Drop the cached factors; the next march rebuilds them."""
        self.mode_lu = None


class StaticSchedule(_FactorCache):
    """Per-node coefficients from the problem's coefficient fields."""

    def __init__(self, grid: Grid, coefficients: dict[str, CoefficientField | None]):
        self.grid = grid
        self.coefficients = coefficients
        self._constant_node: NodeCoefficients | None = None
        self._cache: dict[int, NodeCoefficients] = {}
        self._all_constant = all(
            f is None or f.time_constant for f in coefficients.values()
        )

    def _eval(self, t: float) -> NodeCoefficients:
        basis = self.grid.basis
        vals = {}
        for role in ("a0", "b0", "b", "a1"):
            f = self.coefficients.get(role)
            vals[role] = None if f is None else f.eval(basis, t)
        return NodeCoefficients(**vals)

    def node(self, j: int) -> NodeCoefficients:
        if self._all_constant:
            if self._constant_node is None:
                self._constant_node = self._eval(self.grid.times[0])
            return self._constant_node
        if j not in self._cache:
            self._cache[j] = self._eval(self.grid.times[j])
        return self._cache[j]


class ListSchedule(_FactorCache):
    """Precomputed per-node coefficients (used by frozen linearizations)."""

    def __init__(self, nodes: list[NodeCoefficients]):
        self.nodes_list = nodes

    def node(self, j: int) -> NodeCoefficients:
        return self.nodes_list[j]


def make_schedule(grid: Grid, coefficients: dict[str, CoefficientField | None]) -> StaticSchedule:
    return StaticSchedule(grid, coefficients)


def _lower_apply(basis: SineBasis, nc: NodeCoefficients, u: Array) -> Array:
    out = np.zeros_like(u)
    if nc.a0 is not None:
        out += nc.a0 * u
    if nc.b0 is not None:
        for ax in range(basis.dim):
            out += nc.b0[ax] * basis.dx(u, ax)
    if nc.b is not None:
        for i in range(basis.dim):
            for j in range(basis.dim):
                out += nc.b[i, j] * basis.d2(u, i, j)
    if nc.a1 is not None:
        out += nc.a1 * basis.lap(u)
    return out


def _lower_apply_t(basis: SineBasis, nc: NodeCoefficients, w: Array) -> Array:
    out = np.zeros_like(w)
    if nc.a0 is not None:
        out += nc.a0 * w
    if nc.b0 is not None:
        for ax in range(basis.dim):
            out += basis.dx_t(nc.b0[ax] * w, ax)
    if nc.b is not None:
        for i in range(basis.dim):
            for j in range(basis.dim):
                out += basis.d2_t(nc.b[i, j] * w, i, j)
    if nc.a1 is not None:
        out += basis.lap(nc.a1 * w)
    return out


@dataclass
class SpatialOperator:
    """Full spatial operator at one node, with its exact transpose."""

    basis: SineBasis
    coeffs: NodeCoefficients

    def apply(self, u: Array) -> Array:
        return self.basis.bilap(u) + _lower_apply(self.basis, self.coeffs, u)

    def apply_transpose(self, w: Array) -> Array:
        return self.basis.bilap(w) + _lower_apply_t(self.basis, self.coeffs, w)


def assemble_operator(grid: Grid, coefficients: dict[str, CoefficientField | None],
                      t: float) -> SpatialOperator:
    """Operator with the coefficient fields evaluated at time t."""
    basis = grid.basis
    vals = {}
    for role in ("a0", "b0", "b", "a1"):
        f = coefficients.get(role)
        vals[role] = None if f is None else f.eval(basis, t)
    return SpatialOperator(basis, NodeCoefficients(**vals))


@dataclass
class Trajectory:
    """Midpoint-averaged space-time field with exact end states.

    ``fields[j]`` is the average of the two integer-node states around
    the midpoint node t_j; ``state0`` and ``stateT`` are the untouched
    integer-node states at t = 0 and t = T.
    """

    basis: SineBasis
    dt: float
    times: np.ndarray = field(repr=False)
    fields: np.ndarray = field(repr=False)
    state0: np.ndarray = field(repr=False)
    stateT: np.ndarray = field(repr=False)

    def at(self, j: int) -> Array:
        return self.fields[j]

    def norm_l2q(self) -> float:
        """L2 norm over space-time by midpoint quadrature."""
        return float(np.sqrt(self.dt * self.basis.cell_volume * np.sum(self.fields**2)))

    def sup_l2(self) -> float:
        n2 = self.basis.cell_volume * np.sum(
            self.fields.reshape(self.fields.shape[0], -1) ** 2, axis=1
        )
        return float(np.sqrt(n2.max()))

    def norm_l2h2(self) -> float:
        """L2-in-time norm of the order-two Sobolev norm in space."""
        total = sum(self.basis.h2_norm_sq(f) for f in self.fields)
        return float(np.sqrt(self.dt * total))

    def inner_l2q(self, other: "Trajectory") -> float:
        return float(self.dt * self.basis.cell_volume * np.sum(self.fields * other.fields))


def _source_fields(grid: Grid, source) -> np.ndarray | None:
    if source is None:
        return None
    if callable(source):
        basis = grid.basis
        out = np.empty((grid.n_steps,) + basis.shape)
        for j, t in enumerate(grid.times):
            out[j] = np.broadcast_to(np.asarray(source(*basis.mesh(), t), float),
                                     basis.shape)
        return out
    out = np.asarray(source, dtype=float)
    expected = (grid.n_steps,) + grid.basis.shape
    if out.shape != expected:
        raise EngineError("source-shape", f"source must have shape {expected}, got {out.shape}")
    return out


def _uniform_value(arr: Array, dim: int) -> Array | None:
    """Component values of a coefficient stored as a broadcast over space.

    Constant coefficient fields evaluate to views with zero strides along
    the spatial axes.  A materialized array (a callable's or a frozen
    linearization's) returns None even when its entries agree.
    """
    if any(arr.strides[arr.ndim - dim:]):
        return None
    return arr[(...,) + (0,) * dim]


def _diagonal_key(nc: NodeCoefficients, dim: int) -> tuple[float, ...] | None:
    """(a0, a1, b_11, ..., b_dd) of a node diagonal in the sine basis, else None."""
    vals = {}
    for role in ("a0", "b0", "b", "a1"):
        arr = getattr(nc, role)
        if arr is not None:
            vals[role] = _uniform_value(arr, dim)
            if vals[role] is None:
                return None
    b = vals.get("b", np.zeros((dim, dim)))
    if np.any(vals.get("b0", 0.0)) or np.any(b - np.diag(np.diag(b))):
        return None
    return (float(vals.get("a0", 0.0)), float(vals.get("a1", 0.0)),
            *np.diag(b).tolist())


def _mode_factors(basis: SineBasis, dt: float, key: tuple[float, ...],
                  step: int) -> tuple[Array, Array]:
    """Per-mode CN factors r = (1 - c lam)/(1 + c lam) and dt/(1 + c lam)."""
    a0, a1, *b_diag = key
    lam = basis.bilap_modes + a0 - a1 * basis.lap_modes
    for i, b_ii in enumerate(b_diag):
        k2 = basis.kappa[i] ** 2
        lam = lam - b_ii * k2.reshape((-1,) + (1,) * (basis.dim - 1 - i))
    c = dt / 2
    denom = 1.0 + c * lam
    if not np.all(denom > 0):
        worst = np.unravel_index(np.argmin(denom), denom.shape)
        mode = tuple(int(m) + 1 for m in worst)
        raise EngineError(
            "implicit-denominator-nonpositive",
            f"1 + (dt/2) lambda = {denom[worst]:.3e} <= 0 for sine mode "
            f"{mode if basis.dim > 1 else mode[0]} at step {step}; the implicit "
            f"step is singular or sign-flipping there (reduce dt or the "
            f"negative lower-order coefficients)",
            step=step, mode=mode,
        )
    return (1.0 - c * lam) / denom, dt / denom


def _diagonal_factors(basis: SineBasis, schedule, nt: int,
                      dt: float) -> list[tuple[Array, Array]] | None:
    """Per-step mode factors when every node is diagonal in the sine basis."""
    cache: dict[tuple[float, ...], tuple[Array, Array]] = {}
    factors = []
    last = None
    for j in range(nt):
        nc = schedule.node(j)
        if nc is not last:
            key = _diagonal_key(nc, basis.dim)
            if key is None:
                return None
            if key not in cache:
                cache[key] = _mode_factors(basis, dt, key, j)
            last = nc
        factors.append(cache[key])
    return factors


@dataclass
class _ModeLU:
    """LU factors of the 1D mode-space step matrices M_j of one schedule.

    ``lu[slots[j]]`` and ``piv[slots[j]]`` are the LAPACK factors of
    M_j = I + c D^-1 T Lo_j F; nodes shared between steps share a slot.
    One small array per factor, not one stack, lets the allocator reuse
    a retired linearization's memory for the next one.
    """

    key: tuple
    to_modes: Array = field(repr=False)     # T
    from_modes: Array = field(repr=False)   # F
    half_inv_denom: Array = field(repr=False)  # 1 / (2 D)
    slots: Array = field(repr=False)
    lu: list[Array] = field(repr=False)     # (n, n) each, Fortran order
    piv: list[Array] = field(repr=False)


def _lower_matrix(nc: NodeCoefficients, f_mat: Array, dx_f: Array,
                  dxx_f: Array) -> Array:
    """Lo F of a 1D node: the lower-order part applied to every sine mode."""
    out = np.zeros_like(f_mat)
    if nc.a0 is not None:
        out += nc.a0[:, None] * f_mat
    if nc.b0 is not None:
        out += nc.b0[0][:, None] * dx_f
    if nc.b is not None:
        out += nc.b[0, 0][:, None] * dxx_f
    if nc.a1 is not None:
        out += nc.a1[:, None] * dxx_f
    return out


def _mode_lu(basis: SineBasis, schedule, nt: int, dt: float) -> _ModeLU | None:
    """The schedule's cached mode-space LU factors, built on first use.

    Returns None in 2D and when the stack of factors would exceed
    LU_STACK_CAP_BYTES; those marches take the Richardson path.
    """
    if basis.dim != 1:
        return None
    key = (dt, nt, basis.extents, basis.n_cells)
    cached = getattr(schedule, "mode_lu", None)
    if cached is not None and cached.key == key:
        return cached
    slot_of: dict[int, int] = {}
    firsts: list[tuple[int, NodeCoefficients]] = []
    slots = np.empty(nt, dtype=np.intp)
    for j in range(nt):
        nc = schedule.node(j)
        if id(nc) not in slot_of:
            slot_of[id(nc)] = len(firsts)
            firsts.append((j, nc))
        slots[j] = slot_of[id(nc)]
    n = basis.shape[0]
    if len(firsts) * n * n * 8 > LU_STACK_CAP_BYTES:
        return None
    eye = np.eye(n)
    t_mat = basis.to_modes(eye)
    f_mat = basis.from_modes(eye)
    dx_f = basis.dx(f_mat)
    dxx_f = basis.dxx(f_mat)
    c = dt / 2
    denom = 1.0 + c * basis.bilap_modes
    scale = (c / denom)[:, None]
    lu, piv = [], []
    with warnings.catch_warnings():
        # an exactly zero pivot is reported below as a coded error
        warnings.simplefilter("ignore", LinAlgWarning)
        for j, nc in firsts:
            m = eye + scale * (t_mat @ _lower_matrix(nc, f_mat, dx_f, dxx_f))
            fac, perm = lu_factor(m, overwrite_a=True, check_finite=False)
            pivots = np.diagonal(fac)
            bad = np.flatnonzero(~np.isfinite(pivots) | (pivots == 0.0))
            if bad.size:
                raise EngineError(
                    "implicit-step-singular",
                    f"implicit step {j} is singular: pivot {bad[0] + 1} of its "
                    f"mode-space LU factorization is {pivots[bad[0]]:.3e} "
                    f"(reduce dt or the lower-order coefficients)",
                    step=j, pivot=int(bad[0]) + 1,
                )
            lu.append(fac)
            piv.append(perm)
    schedule.mode_lu = _ModeLU(key, t_mat, f_mat, 0.5 / denom, slots, lu, piv)
    return schedule.mode_lu


class _StepSolver:
    """Shared machinery for one implicit CN half-system solve."""

    def __init__(self, basis: SineBasis, dt: float, inner_tol: float, inner_cap: int):
        self.basis = basis
        self.c = dt / 2
        self.pre = 1.0 + self.c * basis.bilap_modes
        self.inner_tol = inner_tol
        self.inner_cap = inner_cap

    def solve(self, rhs: Array, nc: NodeCoefficients, transpose: bool,
              step: int) -> Array:
        """Solve (I + c (Bilap + Lo)) x = rhs for x."""
        basis = self.basis
        rhs_modes = basis.to_modes(rhs)
        if nc.all_zero:
            return basis.from_modes(rhs_modes / self.pre)
        lower = _lower_apply_t if transpose else _lower_apply
        rhs_norm = max(float(np.linalg.norm(rhs_modes)), 1e-300)
        x_modes = rhs_modes / self.pre
        x = basis.from_modes(x_modes)
        trail = []
        for _ in range(self.inner_cap):
            y_modes = rhs_modes - self.c * basis.to_modes(lower(basis, nc, x))
            res = float(np.linalg.norm(y_modes - self.pre * x_modes))
            trail.append(res / rhs_norm)
            x_modes = y_modes / self.pre
            x = basis.from_modes(x_modes)
            if res <= self.inner_tol * rhs_norm:
                return x
        raise EngineError(
            "inner-solve-divergence",
            f"implicit step {step} failed to reach {self.inner_tol} in "
            f"{self.inner_cap} iterations (last residual {trail[-1]:.3e} relative)",
            step=step, residuals=trail,
        )


def _march_modes(basis: SineBasis, factors, start: Array,
                 source: np.ndarray | None, order, fields: np.ndarray) -> Array:
    """Exact per-mode CN recurrence; fills ``fields``, returns the end state."""
    u_hat = basis.to_modes(start)
    for j in order:
        r, d = factors[j]
        new_hat = r * u_hat
        if source is not None:
            new_hat += d * basis.to_modes(source[j])
        fields[j] = basis.from_modes(0.5 * (u_hat + new_hat))
        u_hat = new_hat
    return basis.from_modes(u_hat)


def _march_lu(factors: _ModeLU, start: Array, source: np.ndarray | None,
              order, fields: np.ndarray, dt: float, transpose: bool) -> Array:
    """CN midpoint solves with the cached mode-space LU factors.

    Fills ``fields`` and returns the end state.
    """
    getrs = lapack.dgetrs
    lu, piv, slots = factors.lu, factors.piv, factors.slots
    half_inv_d = factors.half_inv_denom
    src_hat = None if source is None else dt * (source @ factors.to_modes)
    mids = np.empty(fields.shape)
    u_hat = factors.to_modes @ start
    for j in order:
        rhs = 2.0 * u_hat
        if src_hat is not None:
            rhs += src_hat[j]
        k = slots[j]
        if transpose:
            mid = half_inv_d * getrs(lu[k], piv[k], rhs, trans=1)[0]
        else:
            mid = getrs(lu[k], piv[k], half_inv_d * rhs)[0]
        mids[j] = mid
        u_hat = 2.0 * mid - u_hat
    np.matmul(mids, factors.from_modes, out=fields)
    return factors.from_modes @ u_hat


def _march(
    grid: Grid,
    schedule,
    start: Array,
    source: np.ndarray | None,
    transpose: bool,
    inner_tol: float,
    inner_cap: int,
) -> Trajectory:
    basis = grid.basis
    nt = grid.n_steps
    dt = grid.dt
    fields = np.empty((nt,) + basis.shape)
    first = np.asarray(start, dtype=float).copy()
    order = range(nt) if not transpose else range(nt - 1, -1, -1)
    factors = _diagonal_factors(basis, schedule, nt, dt)
    mode_lu = None if factors is not None else _mode_lu(basis, schedule, nt, dt)
    if factors is not None:
        state = _march_modes(basis, factors, first, source, order, fields)
    elif mode_lu is not None:
        state = _march_lu(mode_lu, first, source, order, fields, dt, transpose)
    else:
        solver = _StepSolver(basis, dt, inner_tol, inner_cap)
        state = first.copy()
        for j in order:
            nc = schedule.node(j)
            if transpose:
                rhs = state - solver.c * (basis.bilap(state) + _lower_apply_t(basis, nc, state))
            else:
                rhs = state - solver.c * (basis.bilap(state) + _lower_apply(basis, nc, state))
            if source is not None:
                rhs = rhs + dt * source[j]
            new_state = solver.solve(rhs, nc, transpose, j)
            fields[j] = 0.5 * (state + new_state)
            state = new_state
    if transpose:
        return Trajectory(basis, dt, grid.times, fields, state0=state, stateT=first)
    return Trajectory(basis, dt, grid.times, fields, state0=first, stateT=state)


def solve_forward(
    grid: Grid,
    schedule,
    initial: Array,
    source=None,
    inner_tol: float = 1e-13,
    inner_cap: int = 200,
) -> Trajectory:
    """March the state equation from t = 0 to t = T.

    Parameters
    ----------
    schedule : object with ``node(j) -> NodeCoefficients``
        Lower-order coefficients per midpoint node.
    source : None, array (Nt, *shape), or callable(*mesh, t)
        Source evaluated at midpoint nodes.

    Raises
    ------
    EngineError
        ``inner-solve-divergence`` when the preconditioned fixed point
        for the implicit half-system stalls above tolerance.
    """
    src = _source_fields(grid, source)
    return _march(grid, schedule, initial, src, False, inner_tol, inner_cap)


def solve_backward(
    grid: Grid,
    schedule,
    terminal: Array,
    source=None,
    inner_tol: float = 1e-13,
    inner_cap: int = 200,
) -> Trajectory:
    """March the exact transpose steps from t = T down to t = 0.

    The result's ``state0`` is the adjoint state at t = 0 on the integer
    node, the quantity every duality identity below refers to.
    """
    src = _source_fields(grid, source)
    return _march(grid, schedule, terminal, src, True, inner_tol, inner_cap)


def solve_forward_nonlinear(
    grid: Grid,
    schedule,
    nonlinearity: NonlinearitySpec,
    initial: Array,
    source=None,
    inner_tol: float = 1e-13,
    inner_cap: int = 200,
    picard_tol: float = 1e-11,
    picard_cap: int = 50,
) -> Trajectory:
    """Forward solve with the reaction term F(u, grad u, hess u) active.

    Each CN step freezes F at the midpoint average and relaxes it by
    lagged iteration: the implicit linear half-system is re-solved with
    the reaction source updated from the previous sweep.
    """
    if nonlinearity.is_zero:
        return solve_forward(grid, schedule, initial, source, inner_tol, inner_cap)
    basis = grid.basis
    nt = grid.n_steps
    dt = grid.dt
    solver = _StepSolver(basis, dt, inner_tol, inner_cap)
    src = _source_fields(grid, source)
    fields = np.empty((nt,) + basis.shape)
    state = np.asarray(initial, dtype=float).copy()
    first = state.copy()

    def reaction(u: Array) -> Array:
        p = basis.gradient(u)
        r = basis.hessian(u)
        return nonlinearity.f(u, p, r)

    for j in range(nt):
        nc = schedule.node(j)
        base_rhs = state - solver.c * (basis.bilap(state) + _lower_apply(basis, nc, state))
        if src is not None:
            base_rhs = base_rhs + dt * src[j]
        new_state = state.copy()
        scale = 1.0 + float(np.linalg.norm(state))
        converged = False
        for _ in range(picard_cap):
            mid = 0.5 * (state + new_state)
            candidate = solver.solve(base_rhs + dt * reaction(mid), nc, False, j)
            step = float(np.linalg.norm(candidate - new_state))
            new_state = candidate
            if step <= picard_tol * scale:
                converged = True
                break
        if not converged:
            raise EngineError(
                "inner-solve-divergence",
                f"reaction relaxation stalled at step {j} "
                f"(last update {step:.3e} against scale {scale:.3e})",
            )
        fields[j] = 0.5 * (state + new_state)
        state = new_state
    return Trajectory(basis, dt, grid.times, fields, state0=first, stateT=state)


def duality_residual(
    y: Trajectory,
    psi: Trajectory,
    v: np.ndarray | None,
    f: np.ndarray | None,
    phi: Trajectory,
    omega_values: Array,
    obs_values: Array,
) -> float:
    """Normalized gap of the summed duality identity.

    With y driven by chi_omega v + f and (phi, psi) the adjoint pair
    driven by chi_obs phi, the exact-transpose marching makes

        int_Q chi_obs phi y = int_Q (chi_omega v + f) psi

    an identity of the discrete quadratures; the residual is its gap
    normalized by 1 + |left side|.
    """
    basis = y.basis
    dt = y.dt
    lhs = dt * basis.cell_volume * float(np.sum(obs_values * phi.fields * y.fields))
    rhs = 0.0
    if v is not None:
        rhs += dt * basis.cell_volume * float(np.sum(omega_values * v * psi.fields))
    if f is not None:
        rhs += dt * basis.cell_volume * float(np.sum(f * psi.fields))
    return abs(lhs - rhs) / (1.0 + abs(lhs))


@dataclass
class EnergyReport:
    passed: bool
    worst_margin: float
    beta: float
    detail: str = ""


def check_energy_growth(traj: Trajectory, beta: float, rtol: float = 1e-3) -> EnergyReport:
    """Discrete echo of the homogeneous energy growth estimate.

    Checks ||z(t2)||^2 <= exp(2 beta (t2 - t1)) ||z(t1)||^2 for every
    midpoint-node pair t1 < t2 of a source-free trajectory.  The CN
    half-step geometry can exceed the continuum factor by O((beta dt)^3)
    per step, hence the relative tolerance.
    """
    n2 = traj.basis.cell_volume * np.sum(
        traj.fields.reshape(traj.fields.shape[0], -1) ** 2, axis=1
    )
    m = n2 * np.exp(-2 * beta * traj.times)
    # condition: m nonincreasing up to tolerance
    suffix_max = np.maximum.accumulate(m[::-1])[::-1]
    scale = m + 1e-300
    worst = float(((m - suffix_max) / scale).min())
    return EnergyReport(
        passed=bool(worst >= -rtol),
        worst_margin=worst,
        beta=float(beta),
        detail="suffix check of exp(-2 beta t) ||z(t)||^2 monotonicity",
    )
