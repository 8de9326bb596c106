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

Coefficients reach a march only as a ``Schedule`` (one ``NodeCoefficients``
per step, built by ``make_schedule``), which also caches the step solver
its first march chose: diagonal mode factors, 1D LU factors or GMRES.

Two paths solve the step.  When every node of a march has spatially
uniform a0 and a1, a uniform diagonal b and no b0 (an all-zero schedule
included), A is diagonal in the sine basis with symbol

    lambda(k) = |kappa|^4 + a0 - a1 |kappa|^2 - sum_i b_ii kappa_i^2,

and the march is the exact per-mode recurrence
u^_{j+1} = r u^_j + dt/(1 + c lambda) g^_j with r = (1 - c lambda)/(1 + c lambda),
c = dt/2, at any stiffness.  The symbol is symmetric, so the
backward march is the same recurrence.

Every other march (b0, mixed b_ij, or x-dependent and frozen
coefficients) is solved in sine coefficients too.  With T and F the
to/from-mode transforms, D = 1 + c |kappa|^4 and Lo_j the lower-order
part at node j, a step is the midpoint solve

    (D + c T Lo_j F) mid_j = u^_j + c g^_j,    u^_{j+1} = 2 mid_j - u^_j,

and the backward march solves with T Lo_j^T F, the exact transpose, so no
physical-space right-hand side (I - c A) u is formed.  In 1D each
distinct node's M_j = I + c D^-1 T Lo_j F is LU-factored once and the
factors are cached on the schedule, so every march of a frozen
linearization reuses them; a factor stack larger than LU_STACK_CAP_BYTES
is not built.  In 2D, and in 1D over that cap, the midpoint solve is a
matrix-free GMRES right-preconditioned with the symbol of the node's mean
coefficients, 1 + c lambda(a0-bar, a1-bar, b_ii-bar), so the Krylov
space only has to resolve the coefficients' fluctuation about their
means.

Both paths run in one step loop (``_march``), step in sine coefficients
and take their sources in modes from it.  A march starts from one field
or from a stack (B, *shape): spatial axes are trailing, so each row
marches independently, against a (Nt, *shape) source shared by the rows
or a per-row (Nt, B, *shape) one.  The loop transforms a full-grid source
in one product before the first step, and a linear march without an
``on_step`` hook records its midpoints in modes and converts the record
in place after the last, in chunks of time steps of at most
RECORD_CHUNK_BYTES each, so it never holds two records.  Besides those,
the loop transforms only a nonzero start and the end state (a GMRES solve
and a reaction transform inside their steps).  A march with a hook
converts each midpoint as it is made, unless it runs ``in_modes``.  A
reaction F(u, grad u, hess u) enters that loop as one more source
evaluated at the midpoint average; on the diagonal path that is
u^_{j+1} = r u^_j + d (g^_j + F^(mid_j)).  Each step relaxes it by
lagged iteration from F(u_j), and a row stops updating once its update
meets RELAX_TOL (1 + |u_j|).  An ``on_step`` hook sees every
midpoint average and chooses what the trajectory records, so a batched
march can stream a reduction instead of storing every row.  With
``in_modes`` the hook (and the record) sees the midpoint's sine
coefficients the march steps in, without a transform.

A linear march can also take its source on a box of nodes (one slice per
axis, zero outside).  The source then comes in step by step through boxed
sine transforms, and an ``in_modes`` hook that reads a box converts each
midpoint on that box only, so a march whose source or observer lives on a
subdomain pays for the subdomain only and never holds a full
(Nt, B, *shape) stack of source modes.
"""
from __future__ import annotations

import functools
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
    "Schedule",
    "SpatialOperator",
    "Trajectory",
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
# whose stack would be bigger solves its steps by GMRES.
LU_STACK_CAP_BYTES = 64 * 2**20
# GMRES midpoint solve: relative residual tolerance and Krylov dimension cap.
INNER_TOL = 1e-13
INNER_CAP = 40
# Largest chunk of time steps in which a march converts its record to nodes.
RECORD_CHUNK_BYTES = 2**16
# Per-step reaction relaxation: update tolerance relative to 1 + |u_j|, and cap.
RELAX_TOL = 1e-11
RELAX_CAP = 50

_ROLES = ("a0", "b0", "b", "a1")


@dataclass
class NodeCoefficients:
    """Lower-order coefficient arrays frozen at one midpoint node."""

    a0: Array | None = None
    b0: Array | None = None   # (dim, *shape)
    b: Array | None = None    # (dim, dim, *shape)
    a1: Array | None = None


@dataclass(eq=False)
class Schedule:
    """Lower-order coefficients at every midpoint node, plus cached factors.

    ``nodes[j]`` holds the coefficients of step j; steps that share a node
    object share its factors.  ``factors`` is (march key, the step solver
    the first march with that key chose): the per-step diagonal mode
    factors, the 1D mode-space LU factors, or None for GMRES.
    """

    nodes: list[NodeCoefficients]
    factors: tuple | None = field(default=None, repr=False)

    def node(self, j: int) -> NodeCoefficients:
        return self.nodes[j]

    def release_factors(self) -> None:
        """Drop the cached factors; the next march rebuilds them."""
        self.factors = None


def make_schedule(grid: Grid, coefficients: dict[str, CoefficientField | None],
                  add_a0: Array | None = None, add_b0: Array | None = None,
                  add_b: Array | None = None) -> Schedule:
    """The coefficient fields at each midpoint node, plus per-node additions.

    ``add_a0``, ``add_b0`` and ``add_b`` are (Nt, ...) stacks added to the
    matching role at every node (a frozen linearization); an all-zero one
    is dropped.  When every field is time-constant and nothing is added,
    all steps share one node, so a march factors it once.
    """
    basis = grid.basis
    fields = {role: coefficients.get(role) for role in _ROLES}
    adds = {role: add for role, add in (("a0", add_a0), ("b0", add_b0), ("b", add_b))
            if add is not None and np.any(add)}

    def at(j: int) -> NodeCoefficients:
        vals = {}
        for role, f in fields.items():
            val = None if f is None else f.eval(basis, grid.times[j])
            add = adds.get(role)
            if add is not None:
                val = add[j] if val is None else val + add[j]
            vals[role] = val
        return NodeCoefficients(**vals)

    if not adds and all(f is None or f.time_constant for f in fields.values()):
        return Schedule([at(0)] * grid.n_steps)
    return Schedule([at(j) for j in range(grid.n_steps)])


def _lower_apply(basis: SineBasis, nc: NodeCoefficients, u: Array,
                 dx: Callable[[int], Array] | None = None,
                 d2: Callable[[int, int], Array] | None = None) -> Array:
    """Lo u at one node; ``dx(ax)``, ``d2(i, j)`` give u's derivatives."""
    dx = dx or functools.partial(basis.dx, u)
    d2 = d2 or functools.partial(basis.d2, u)
    out = np.zeros_like(u)
    if nc.a0 is not None:
        out += nc.a0 * u
    if nc.b0 is not None:
        for ax in range(basis.dim):
            out += nc.b0[ax] * dx(ax)
    if nc.b is not None:
        for i in range(basis.dim):
            for j in range(basis.dim):
                out += nc.b[i, j] * d2(i, j)
    if nc.a1 is not None:
        out += nc.a1 * (d2(0, 0) if basis.dim == 1 else d2(0, 0) + d2(1, 1))
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


@dataclass
class Trajectory:
    """Midpoint-averaged space-time field with exact end states.

    ``fields[j]`` is the average of the two integer-node states around
    the midpoint node t_j (its sine coefficients for a march run with
    ``in_modes``); ``state0`` and ``stateT`` are the untouched
    integer-node states at t = 0 and t = T.  A march from a stack
    (B, *shape) records fields (Nt, B, *shape) and end states (B, *shape);
    the norms below are those of a single field.
    """

    basis: SineBasis
    dt: float
    times: np.ndarray = field(repr=False)
    fields: np.ndarray = field(repr=False)
    state0: np.ndarray = field(repr=False)
    stateT: np.ndarray = field(repr=False)

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
        return float(np.sqrt(self.dt * self.basis.h2_norm_sq(self.fields)))

    def inner_l2q(self, other: "Trajectory") -> float:
        return float(self.dt * self.basis.cell_volume * np.sum(self.fields * other.fields))


def _source_fields(grid: Grid, source: Array | None, start: Array,
                   box: tuple[slice, ...] | None = None) -> Array | None:
    """The source as a float (Nt, *shape) array, or its values on ``box``.

    A stack start (B, *shape) also takes a per-row source (Nt, B, *shape).
    """
    if source is None:
        return None
    shape = grid.shape if box is None else \
        tuple(len(range(n)[sl]) for n, sl in zip(grid.shape, box))
    allowed = [(grid.n_steps,) + shape]
    if start.ndim > grid.dim:
        allowed.append((grid.n_steps, start.shape[0]) + shape)
    out = np.asarray(source)
    if out.shape not in allowed:
        raise EngineError("source-shape", "source must have shape "
                          f"{' or '.join(map(str, allowed))}, got {out.shape}")
    return out.astype(float, copy=False)


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
    for role in _ROLES:
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


def _mean_key(nc: NodeCoefficients, dim: int) -> tuple[float, ...]:
    """(a0, a1, b_11, ..., b_dd) of a node's spatial-mean coefficients."""
    means = [0.0 if arr is None else float(np.mean(arr)) for arr in (nc.a0, nc.a1)]
    b_diag = [0.0 if nc.b is None else float(np.mean(nc.b[i, i])) for i in range(dim)]
    return (*means, *b_diag)


def _symbol(basis: SineBasis, key: tuple[float, ...]) -> Array:
    """lambda = |kappa|^4 + a0 - a1 |kappa|^2 - sum_i b_ii kappa_i^2 of a key."""
    a0, a1, *b_diag = key
    lam = basis.bilap_modes + a0 - a1 * basis.lap_modes
    for i, b_ii in enumerate(b_diag):
        k2 = basis.kappa[i] ** 2
        lam = lam - b_ii * k2.reshape((-1,) + (1,) * (basis.dim - 1 - i))
    return lam


def _mode_factors(basis: SineBasis, dt: float, key: tuple[float, ...],
                  step: int) -> tuple[Array, Array]:
    """Per-mode CN factors r = (1 - c lam)/(1 + c lam) and dt/(1 + c lam)."""
    lam = _symbol(basis, key)
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


def _scan_diagonal(basis: SineBasis, schedule: Schedule, nt: int,
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

    half_inv_denom: Array = field(repr=False)  # 1 / (2 D)
    slots: Array = field(repr=False)
    lu: list[Array] = field(repr=False)     # (n, n) each, Fortran order
    piv: list[Array] = field(repr=False)


def _mode_lu(basis: SineBasis, schedule: Schedule, nt: int,
             dt: float) -> _ModeLU | None:
    """The mode-space LU factors of the schedule's distinct nodes.

    Returns None in 2D and when the stack of factors would exceed
    LU_STACK_CAP_BYTES; those marches solve their steps by GMRES.
    """
    if basis.dim != 1:
        return None
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
    f_mat = basis.from_modes(eye)  # F: the sine matrix is symmetric
    # row m of dx(f_mat) is the derivative of mode m; columns index modes below
    dx_f, dxx_f = basis.dx(f_mat).T, basis.dxx(f_mat).T
    c = dt / 2
    denom = 1.0 + c * basis.bilap_modes
    scale = (c / denom)[:, None]
    lu, piv = [], []
    with warnings.catch_warnings():
        # an exactly zero pivot is reported below as a coded error
        warnings.simplefilter("ignore", LinAlgWarning)
        for j, nc in firsts:
            # coefficients as columns: Lo acts on every mode of F at once
            cols = NodeCoefficients(*(None if a is None else a[..., None]
                                      for a in (nc.a0, nc.b0, nc.b, nc.a1)))
            m = eye + scale * (t_mat @ _lower_apply(
                basis, cols, f_mat, lambda ax: dx_f, lambda i, k: dxx_f))
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
    return _ModeLU(0.5 / denom, slots, lu, piv)


def _row_norms(x: Array, dim: int) -> Array:
    """Euclidean norm of each field of a (..., *shape) stack."""
    return np.sqrt(np.sum(x * x, axis=tuple(range(-dim, 0))))


def _rows(mask: Array, dim: int) -> Array:
    """A per-field mask broadcast against the trailing spatial axes."""
    return np.reshape(mask, np.shape(mask) + (1,) * dim)


def _first_row(active: Array) -> tuple[int | None, int | tuple]:
    """First unconverged row (None when unbatched) and its index."""
    if not np.ndim(active):
        return None, ()
    row = int(np.flatnonzero(active)[0])
    return row, row


def _at_row(row: int | None) -> str:
    return "" if row is None else f", row {row}"


def _gmres(op: Callable[[Array], Array], rhs: Array, pre: Array, dim: int,
           step: int) -> Array:
    """Solve op(m) = rhs for each field of a (..., *shape) block of modes.

    GMRES right-preconditioned by 1/pre, started from zero and not
    restarted: per row, Arnoldi with modified Gram-Schmidt and Givens
    rotations (accumulated in q) for the residual estimate.  A row freezes
    once its estimate meets INNER_TOL relative to its right-hand side; its
    later Krylov vectors are zero, so its bits do not depend on its
    batch-mates.
    """
    rows = rhs.shape[:rhs.ndim - dim]
    b = rhs.reshape(rows + (-1,))
    pre = pre.reshape(-1)
    beta = _row_norms(b, 1)
    active = beta > 0
    r = np.zeros(rows + (INNER_CAP, INNER_CAP))
    q = np.zeros(rows + (INNER_CAP + 1, INNER_CAP + 1))
    q[..., 0, 0] = 1.0
    vs = [b / np.where(active, beta, 1.0)[..., None]]
    trail = []
    for k in range(INNER_CAP):
        if not active.any():
            break
        w = op((vs[k] / pre).reshape(rhs.shape)).reshape(b.shape)
        col = np.empty(rows + (k + 1,))
        for i, v in enumerate(vs):
            col[..., i] = (w * v).sum(-1)
            w -= col[..., i, None] * v
        norm = _row_norms(w, 1)
        # the earlier rotations applied to the new column, then its own;
        # a frozen row's column is zero, so its R diagonal is set to 1 and
        # its rotation (c = s = 0) clears the rows of q it no longer uses
        col = (q[..., :k + 1, :k + 1] @ col[..., None])[..., 0]
        diag = np.hypot(col[..., k], norm)
        r[..., :k + 1, k] = col
        r[..., k, k] = np.where(diag > 0, diag, 1.0)
        c = (col[..., k] / r[..., k, k])[..., None]
        s = (norm / r[..., k, k])[..., None]
        q[..., k + 1, k + 1] = 1.0
        qk, qk1 = q[..., k, :k + 2], q[..., k + 1, :k + 2]
        q[..., k, :k + 2], q[..., k + 1, :k + 2] = c * qk + s * qk1, c * qk1 - s * qk
        # |beta q[k + 1, 0]| is the residual norm; a NaN never meets the
        # tolerance, so a row that blows up stalls loudly
        trail.append(np.abs(q[..., k + 1, 0]))
        active = active & ~(trail[-1] <= INNER_TOL)
        vs.append(np.where(active[..., None],
                           w / np.where(active, norm, 1.0)[..., None], 0.0))
    if active.any():
        row, idx = _first_row(active)
        raise EngineError(
            "inner-solve-divergence",
            f"implicit step {step}{_at_row(row)} failed to reach "
            f"{INNER_TOL} in {INNER_CAP} GMRES iterations (last residual "
            f"{trail[-1][idx]:.3e} relative)",
            step=step, row=row, residuals=[float(t[idx]) for t in trail],
        )
    n = len(trail)
    y = beta[..., None] * q[..., :n, 0]
    for i in range(n - 1, -1, -1):
        y[..., i] /= r[..., i, i]
        y[..., :i] -= r[..., :i, i] * y[..., i, None]
    m = np.zeros_like(b)
    for i in range(n):
        m += y[..., i, None] * vs[i]
    return (m / pre).reshape(rhs.shape)


class _DiagonalPath:
    """Exact per-mode recurrence.

    Both paths step in sine coefficients and take everything in modes from
    the step loop: ``linear(j, x, g)`` is the part of step j that does not
    depend on the reaction (``g`` the step's source modes or None), and
    ``advance`` completes the step with the reaction's modes, returning
    the new state and the midpoint.
    """

    def __init__(self, factors):
        self.factors = factors

    def linear(self, j: int, x: Array, g: Array | None) -> Array:
        """r u^_j + d g^_j."""
        r, d = self.factors[j]
        base = r * x
        if g is not None:
            base += d * g
        return base

    def advance(self, j: int, x: Array, base: Array, extra: Array | None):
        new = base if extra is None else base + self.factors[j][1] * extra
        return new, 0.5 * (x + new)


class _ModePath:
    """Midpoint solves (D + c T Lo_j F) mid_j = u^_j + c g^_j.

    With the schedule's cached 1D LU factors (``mode_lu``) the solve is
    direct; with None it is GMRES on the node's operator, preconditioned
    with its mean-coefficient symbol.  ``linear`` and ``advance`` take
    sources and return midpoints in modes, as on the diagonal path.
    """

    def __init__(self, basis: SineBasis, schedule: Schedule,
                 mode_lu: _ModeLU | None, dt: float, transpose: bool):
        self.basis = basis
        self.schedule = schedule
        self.mode_lu = mode_lu
        self.dt = dt
        self.c = dt / 2
        self.transpose = transpose
        self.lower = _lower_apply_t if transpose else _lower_apply
        self.denom = 1.0 + self.c * basis.bilap_modes
        self._node = self._pre = None

    def linear(self, j: int, x: Array, g: Array | None) -> Array:
        """2 u^_j + dt g^_j."""
        rhs = 2.0 * x
        if g is not None:
            rhs += self.dt * g
        return rhs

    def advance(self, j: int, x: Array, rhs: Array, extra: Array | None):
        if extra is not None:
            rhs = rhs + self.dt * extra
        f = self.mode_lu
        if f is None:
            mid = self._krylov(j, 0.5 * rhs)
        else:
            k = f.slots[j]
            # LAPACK takes the right-hand sides as columns
            if self.transpose:
                mid = f.half_inv_denom * lapack.dgetrs(f.lu[k], f.piv[k], rhs.T,
                                                       trans=1)[0].T
            else:
                mid = lapack.dgetrs(f.lu[k], f.piv[k],
                                    (f.half_inv_denom * rhs).T)[0].T
        return 2.0 * mid - x, mid

    def _krylov(self, j: int, rhs: Array) -> Array:
        basis, c = self.basis, self.c
        nc = self.schedule.node(j)
        if nc is not self._node:
            pre = 1.0 + c * _symbol(basis, _mean_key(nc, basis.dim))
            self._node, self._pre = nc, np.where(pre > 0, pre, self.denom)

        def op(m: Array) -> Array:
            return self.denom * m + c * basis.to_modes(
                self.lower(basis, nc, basis.from_modes(m)))

        return _gmres(op, rhs, self._pre, basis.dim, j)


def _path(basis: SineBasis, schedule: Schedule, nt: int, dt: float,
          transpose: bool):
    """The march's cheapest exact step solver, cached on the schedule."""
    key = (dt, nt, basis.extents, basis.n_cells)
    if schedule.factors is None or schedule.factors[0] != key:
        schedule.factors = (key, _scan_diagonal(basis, schedule, nt, dt)
                            or _mode_lu(basis, schedule, nt, dt))
    factors = schedule.factors[1]
    if isinstance(factors, list):
        return _DiagonalPath(factors)
    return _ModePath(basis, schedule, factors, dt, transpose)


def _relax(path, basis: SineBasis, j: int, x: Array, base: Array, u: Array,
           reaction) -> tuple[Array, Array]:
    """Step j with the reaction at the midpoint, by lagged iteration.

    Starts from F(u_j) and re-solves with F at the latest midpoint; a
    field stops updating once its update meets RELAX_TOL (1 + |u_j|).
    Returns the new state (in modes) and the physical midpoint.
    """
    dim = basis.dim
    scale = 1.0 + _row_norms(u, dim)
    new, mid = x, u
    active = np.ones(np.shape(scale), dtype=bool)
    trail = []
    for _ in range(RELAX_CAP):
        cand, cand_mid = path.advance(j, x, base, basis.to_modes(reaction(mid)))
        cand_mid = basis.from_modes(cand_mid)
        # the state moves twice as far as the midpoint average
        trail.append(2.0 * _row_norms(cand_mid - mid, dim) / scale)
        keep = _rows(active, dim)
        new = np.where(keep, cand, new)
        mid = np.where(keep, cand_mid, mid)
        active &= trail[-1] > RELAX_TOL
        if not active.any():
            return new, mid
    row, idx = _first_row(active)
    raise EngineError(
        "inner-solve-divergence",
        f"reaction relaxation stalled at step {j}{_at_row(row)} (last update "
        f"{trail[-1][idx]:.3e} relative to 1 + |u|, tolerance {RELAX_TOL})",
        step=j, row=row, updates=[float(t[idx]) for t in trail],
    )


def _march(
    grid: Grid,
    schedule: Schedule,
    start: Array,
    source: Array | None,
    transpose: bool,
    reaction: Callable[[Array], Array] | None = None,
    on_step: Callable[[int, Array], Array] | None = None,
    source_box: tuple[slice, ...] | None = None,
    in_modes: bool = False,
) -> Trajectory:
    """The one CN step loop behind every march (see the module notes).

    ``in_modes`` applies to linear marches only (``reaction`` None).
    """
    basis = grid.basis
    nt = grid.n_steps
    dt = grid.dt
    first = np.asarray(start, dtype=float).copy()
    if first.shape[first.ndim - basis.dim:] != basis.shape \
            or first.ndim > basis.dim + 1:
        raise EngineError(
            "start-shape", f"start must have shape {basis.shape} or "
            f"(B, *{basis.shape}), got {first.shape}")
    source = _source_fields(grid, source, first, source_box)
    order = range(nt) if not transpose else range(nt - 1, -1, -1)
    path = _path(basis, schedule, nt, dt, transpose)
    # a full-grid source goes to modes in one product (and is not held
    # after); a boxed one goes step by step on its box, so it never grows
    # into a full mode stack
    full_modes = None
    if source is not None and source_box is None:
        full_modes, source = basis.to_modes(source), None

    def source_at(j: int) -> Array | None:
        if full_modes is not None:
            return full_modes[j]
        return None if source is None else basis.to_modes(source[j], source_box)

    defer = reaction is None and on_step is None and not in_modes
    fields = None
    # a zero start (y0 = 0, every costate's terminal) needs no transform
    x = basis.to_modes(first) if first.any() else np.zeros_like(first)
    u = first
    for j in order:
        base = path.linear(j, x, source_at(j))
        if reaction is None:
            x, mid = path.advance(j, x, base, None)
            if not (defer or in_modes):
                mid = basis.from_modes(mid)
        else:
            x, mid = _relax(path, basis, j, x, base, u, reaction)
            u = 2.0 * mid - u
        rec = mid if on_step is None else on_step(j, mid)
        if fields is None:
            fields = np.empty((nt,) + np.shape(rec))
        fields[j] = rec
    full_modes = None  # free the source modes before the record converts
    if defer:
        rows = max(1, RECORD_CHUNK_BYTES // fields[0].nbytes)
        for t in range(0, nt, rows):
            fields[t:t + rows] = basis.from_modes(fields[t:t + rows])
    state = basis.from_modes(x)
    if transpose:
        return Trajectory(basis, dt, grid.times, fields, state0=state, stateT=first)
    return Trajectory(basis, dt, grid.times, fields, state0=first, stateT=state)


def solve_forward(
    grid: Grid,
    schedule: Schedule,
    initial: Array,
    source: Array | None = None,
    on_step: Callable[[int, Array], Array] | None = None,
    source_box: tuple[slice, ...] | None = None,
    in_modes: bool = False,
) -> Trajectory:
    """March the state equation from t = 0 to t = T.

    Parameters
    ----------
    schedule : Schedule
        Lower-order coefficients per midpoint node (see :func:`make_schedule`).
    initial : array, shape ``shape`` or (B, *shape)
        One initial state, or a stack of B marched together; the
        trajectory's arrays then carry the batch axis after the time axis.
    source : None or array (Nt, *shape) or (Nt, B, *shape)
        Source values at the midpoint nodes, shared by every row of a
        stack or, with the batch axis, one source per row.  With
        ``source_box`` it holds the values on that box, (Nt, *box shape)
        or (Nt, B, *box shape), and the source is zero elsewhere.
    on_step : callable(j, mid) -> array, optional
        Sees each step's midpoint average and returns what ``fields[j]``
        records, so a batched march can stream a reduction instead of
        storing every row.
    source_box : tuple of slices, optional
        A box of nodes, one slice per axis, that holds the source.
    in_modes : bool
        When true, ``on_step`` and ``fields`` see each midpoint's sine
        coefficients instead of its node values, so a hook that needs the
        values on a box only converts them with ``basis.from_modes(mid,
        box)``.  The end states stay physical.

    Raises
    ------
    EngineError
        ``source-shape`` when the source has none of those shapes (a
        per-row source whose row count differs from the start's
        included); ``inner-solve-divergence`` when a step's GMRES
        midpoint solve misses INNER_TOL within INNER_CAP iterations, with
        the ``step``, the ``row`` of a batched start and the relative
        ``residuals`` trail in its context.
    """
    return _march(grid, schedule, initial, source, False, on_step=on_step,
                  source_box=source_box, in_modes=in_modes)


def solve_backward(
    grid: Grid,
    schedule: Schedule,
    terminal: Array,
    source: Array | None = None,
    on_step: Callable[[int, Array], Array] | None = None,
    source_box: tuple[slice, ...] | None = None,
    in_modes: bool = False,
) -> Trajectory:
    """March the exact transpose steps from t = T down to t = 0.

    The result's ``state0`` is the adjoint state at t = 0 on the integer
    node, the quantity every duality identity below refers to.  The
    stack, the (shared or per-row) source, ``on_step``, ``source_box`` and
    ``in_modes`` are as in :func:`solve_forward`; ``on_step`` sees the
    steps from j = Nt - 1 down to 0.
    """
    return _march(grid, schedule, terminal, source, True, on_step=on_step,
                  source_box=source_box, in_modes=in_modes)


def solve_forward_nonlinear(
    grid: Grid,
    schedule: Schedule,
    nonlinearity: NonlinearitySpec,
    initial: Array,
    source: Array | None = None,
    on_step: Callable[[int, Array], Array] | None = None,
) -> Trajectory:
    """Forward solve with the reaction term F(u, grad u, hess u) active.

    The reaction enters the step loop of :func:`solve_forward` as a
    source at the midpoint average, relaxed per step by lagged
    iteration; ``initial``, ``source`` and ``on_step`` are as there.

    Raises
    ------
    EngineError
        ``inner-solve-divergence`` when a step's relaxation stalls; its
        context names the ``step``, the ``row`` of a batched start and the
        relative ``updates`` trail.
    """
    if nonlinearity.is_zero:
        return solve_forward(grid, schedule, initial, source, on_step=on_step)
    basis = grid.basis

    if nonlinearity.state_only:
        def reaction(u: Array) -> Array:
            # F ignores p and r: zero-stride placeholders of their shapes
            return nonlinearity.f(u, np.broadcast_to(0.0, (basis.dim,) + u.shape),
                                  np.broadcast_to(0.0, (basis.dim,) * 2 + u.shape))
    else:
        def reaction(u: Array) -> Array:
            return nonlinearity.f(u, basis.gradient(u), basis.hessian(u))

    return _march(grid, schedule, initial, source, False, reaction, on_step)


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
