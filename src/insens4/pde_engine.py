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
its first march chose: diagonal mode factors, 1D inverses or GMRES.
Steps share one node when every callable field and every added
linearization has equal rows in time.  Whether a role is the same at
every point is read off its values, however it is stored, so a
linearization frozen at z = 0 (F'(0), one number per component) or a
callable that returns a uniform array marches as a constant coefficient
does.

Every march steps in sine coefficients by the implicit midpoint rule.
With c = dt/2, step j solves

    (I + c A_j) mid_j = u^_j + c g^_j,    u^_{j+1} = 2 mid_j - u^_j,

and the backward march solves with the transpose of I + c A_j.  Every
solver returns the midpoint sum s_j = u^_j + u^_{j+1} = 2 mid_j, and the
state steps by one in-place subtraction u^_{j+1} = s_j - u^_j.  Doubling
and halving are exact (short of the subnormal range), so this gives the
textbook form's bits.  The solvers differ only in how they take s_j.
When every node of a march has spatially uniform a0 and a1, a uniform
diagonal b and no b0 (an all-zero schedule included), A is diagonal in
the sine basis with symbol

    lambda(k) = |kappa|^4 + a0 - a1 |kappa|^2 - sum_i b_ii kappa_i^2,

and the solve multiplies by the per-mode factor 2/(1 + c lambda), exact
at any stiffness; the symbol is symmetric, so the backward march is the
same product.  Every other march (b0, mixed b_ij, or x-dependent
coefficients) solves (D + c T Lo_j F) mid_j = rhs, with T and F
the to/from-mode transforms, D = 1 + c |kappa|^4 and Lo_j the lower-order
part at node j; the backward march solves with T Lo_j^T F, the exact
transpose, so no physical-space right-hand side (I - c A) u is formed.
In 1D the distinct nodes' step matrices D + c T Lo_j F are built in closed
form (Toeplitz plus Hankel in the modes) into one stack and inverted
there, chunk by chunk, in one workspace of two chunks that the whole
build reuses.  A matrix whose off-diagonal column sums are at most half
its diagonal entries, the usual case unless c times the lower-order
coefficients is large, is inverted by a Neumann series on its own
diagonal in Euler's product form, whose last row scaling doubles it; any
other by LAPACK (``np.linalg.inv``), then doubled.  The doubled inverses
2 P_j, P_j = (D + c T Lo_j F)^-1, are cached on the schedule, so every
march of a frozen linearization reuses them: a forward step is
rhs @ (2 P_j)^T and a backward step rhs @ (2 P_j).  A stack of inverses
larger than INVERSE_STACK_CAP_BYTES is not built.  In 2D, and in 1D over
that cap, the solve is a matrix-free GMRES right-preconditioned with the
symbol of the node's mean coefficients, 1 + c lambda(a0-bar, a1-bar,
b_ii-bar), so the Krylov space only has to resolve the coefficients'
fluctuation about their means; its solution is doubled.  Both paths
refuse a node whose mean symbol gives 1 + c lambda <= 0 at some mode, as
the diagonal path refuses its own symbol.

One step loop (``_march``) runs every march and takes its sources in
modes.  A march starts from one field or from a stack (B, *shape):
spatial axes are trailing, so each row marches independently, against a
(Nt, *shape) source shared by the rows or a per-row (Nt, B, *shape) one.
The loop transforms a full-grid source in one product before the first
step, and a linear march without an ``on_step`` hook writes each
midpoint sum into its record in modes, then halves the record and
converts it in place after the last step, in chunks of time steps of at
most RECORD_CHUNK_BYTES each, so it never holds two records.  Besides
those, the loop transforms only a nonzero start and the end state (a
GMRES solve and a reaction transform inside their steps).  A nonlinear
march solves

    y_t + A y + F(y) = g,    F = F(u, grad u, hess u),

the equation the semilinear loop linearizes: F enters the step loop as
one more source evaluated at the midpoint average, subtracting
c F^(mid_j) from the right-hand side.  Each step relaxes it by lagged
iteration from F(u_j), and a row stops updating once its update meets
RELAX_TOL (1 + |u_j|).

An ``on_step`` hook sees every midpoint sum, twice the midpoint average,
and chooses what the trajectory records, so a batched march can stream a
reduction instead of storing every row; it folds the halving into what it
reads (0.5 for a value, 0.25 for a square), which is exact.  It is called
once per block of consecutive steps, as ``on_step(lo, totals)`` with
``totals`` (k, *x.shape) holding steps lo .. lo + k - 1 in time order,
and returns the records of ``fields[lo:lo + k]``.  A linear march steps
in blocks of k = HOOK_BLOCK_BYTES // (bytes of its state, every row of a
stack) steps, at least one and at most Nt; a backward march fills each
block from the top.  Its hook sees the
sums' sine coefficients, the form the march steps in, in one block of
work slots that the next block overwrites, and converts only what it
reads (``basis.from_modes(totals, box)`` on a box), in one call per
block.  A nonlinear march's hook sees blocks of one step, node values
2 mid_j from the midpoint its relaxation holds.

A linear march can also take its source on a box of nodes (one slice per
axis, zero outside).  The source then comes in a block at a time through
one boxed sine transform per block, scaled by c there, so a march whose
source or observer lives on a subdomain pays for the subdomain only and
never holds a full (Nt, B, *shape) stack of source modes.  A block's
stacked products have the shapes of a single step's (a single 1D source
field goes as a one-row stack), so a stack's records and end state have
the same bits at any block size.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EngineError
from .nonlinearity import NonlinearitySpec
from .problem_setup import ROLE_AXES, CoefficientField, Grid
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
]

Array = np.ndarray

# Largest stack of inverted 1D mode-space step matrices (n^2 * 8 bytes
# each) a schedule may cache; a march whose stack would be bigger solves its
# steps by GMRES.  The stack is built and inverted in place in chunks of at
# most INVERSE_CHUNK_BYTES (12 matrices of 63 x 63), each inverted with two
# more chunks of memory, one workspace that the whole build reuses, so a
# build peaks at its stack plus 0.75 MiB.
INVERSE_STACK_CAP_BYTES = 64 * 2**20
INVERSE_CHUNK_BYTES = 3 * 2**17
# GMRES midpoint solve: relative residual tolerance and Krylov dimension cap.
INNER_TOL = 1e-13
INNER_CAP = 40
# Largest chunk of time steps in which a march converts its record to nodes.
RECORD_CHUNK_BYTES = 2**16
# Largest block of time steps a linear march takes at a time: a boxed source
# comes to modes, and the midpoint sums go to an ``on_step`` hook, a block
# at a time.
HOOK_BLOCK_BYTES = 2**18
# Per-step reaction relaxation: update tolerance relative to 1 + |u_j|, and cap.
RELAX_TOL = 1e-11
RELAX_CAP = 50

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
    factors 2/(1 + c lambda), the doubled inverses of the 1D mode-space
    step matrices, or None for GMRES; each takes a step's right-hand side
    to its midpoint sum.
    """

    nodes: list[NodeCoefficients]
    factors: tuple | None = field(default=None, repr=False)

    def release_factors(self) -> None:
        """Drop the cached factors; the next march rebuilds them."""
        self.factors = None


def make_schedule(grid: Grid,
                  coefficients: dict[str, CoefficientField | Array | None],
                  add_a0: Array | None = None, add_b0: Array | None = None,
                  add_b: Array | None = None) -> Schedule:
    """The coefficients at each midpoint node, plus per-node additions.

    Each role is a field or its ``CoefficientField.at_nodes`` values, as a
    validated problem holds them: one node's values, or an (Nt, ...) stack
    when a callable's rows differ.  ``add_a0``, ``add_b0`` and ``add_b``
    are (Nt, ...) stacks added to the matching role at every node (a
    frozen linearization); an all-zero one is dropped.  When every
    stack's rows are equal, all steps share one node, so a march factors
    it once.
    """
    fixed, stacks = {}, {}
    for role, add in zip(ROLE_AXES, (add_a0, add_b0, add_b, None)):
        f = coefficients.get(role)
        stacks[role] = [] if add is None or not np.any(add) else [add]
        if f is None:
            continue
        values = f.at_nodes(grid) if isinstance(f, CoefficientField) else f
        if values.ndim > ROLE_AXES[role] + grid.dim:
            stacks[role].insert(0, values)
        else:
            fixed[role] = values

    def at(j: int) -> NodeCoefficients:
        vals = {}
        for role, rows in stacks.items():
            val = fixed.get(role)
            for stack in rows:
                val = stack[j] if val is None else val + stack[j]
            vals[role] = val
        return NodeCoefficients(**vals)

    if all(np.all(s == s[0]) for rows in stacks.values() for s in rows):
        return Schedule([at(0)] * grid.n_steps)
    return Schedule([at(j) for j in range(grid.n_steps)])


def _lower_apply(basis: SineBasis, nc: NodeCoefficients, u: Array) -> Array:
    """Lo u at one node.

    Each second derivative d2(i, j) of u is taken once per apply: ``b``
    and ``a1`` share the same-axis ones.
    """
    d2 = functools.cache(functools.partial(basis.d2, u))
    out = np.zeros_like(u)
    if nc.a0 is not None:
        out += nc.a0 * u
    if nc.b0 is not None:
        for ax in range(basis.dim):
            out += nc.b0[ax] * basis.dx(u, ax)
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
    the midpoint node t_j, or what an ``on_step`` hook returned for it;
    ``state0`` and ``stateT`` are the untouched integer-node states at
    t = 0 and t = T.  A march from a stack (B, *shape) records fields
    (Nt, B, *shape) and end states (B, *shape); ``norm_l2h2`` is that of a
    single field.
    """

    basis: SineBasis
    dt: float
    fields: np.ndarray = field(repr=False)
    state0: np.ndarray = field(repr=False)
    stateT: np.ndarray = field(repr=False)

    def norm_l2h2(self) -> float:
        """L2-in-time norm of the order-two Sobolev norm in space."""
        return float(np.sqrt(self.dt * self.basis.h2_norm_sq(self.fields)))


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
    """Component values of a coefficient that is the same at every point.

    Each component is compared with its value at the first point, so a
    constant field, a callable's full array and a role with an addition
    are judged by their values alike; returns None when some point
    differs.
    """
    first = arr[(...,) + (slice(0, 1),) * dim]
    if not np.all(arr == first):
        return None
    return first[(...,) + (0,) * dim]


def _diagonal_key(nc: NodeCoefficients, dim: int) -> tuple[float, ...] | None:
    """(a0, a1, b_11, ..., b_dd) of a node diagonal in the sine basis, else None."""
    vals = {}
    for role in ROLE_AXES:
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


def _denominator(basis: SineBasis, dt: float, key: tuple, steps) -> Array:
    """1 + (dt/2) lambda of a key first met at step ``steps``, or of one key
    per node when the key's entries are (nodes, 1) columns (1D), node i
    first met at ``steps[i]``.

    Raises ``implicit-denominator-nonpositive`` naming the first such step
    and its worst sine mode when an entry is not positive.
    """
    denom = 1.0 + dt / 2 * _symbol(basis, key)
    if not np.all(denom > 0):
        rows = denom.reshape((-1,) + basis.shape)
        node = int(np.argmin((rows > 0).all(axis=tuple(range(1, rows.ndim)))))
        worst = np.unravel_index(np.argmin(rows[node]), basis.shape)
        step = int(np.atleast_1d(steps)[node])
        mode = tuple(int(m) + 1 for m in worst)
        raise EngineError(
            "implicit-denominator-nonpositive",
            f"1 + (dt/2) lambda = {rows[node][worst]:.3e} <= 0 for sine mode "
            f"{mode if basis.dim > 1 else mode[0]} at step {step}; the implicit "
            f"step is singular or sign-flipping there (reduce dt or the "
            f"negative lower-order coefficients)",
            step=step, mode=mode,
        )
    return denom


def _mode_factor(basis: SineBasis, dt: float, key: tuple[float, ...],
                 step: int) -> Array:
    """The per-mode factor 2/(1 + c lam) of a diagonal node, which takes a
    step's right-hand side to its midpoint sum."""
    return 2.0 / _denominator(basis, dt, key, step)


def _scan_diagonal(basis: SineBasis, schedule: Schedule, nt: int,
                   dt: float) -> list[Array] | None:
    """Per-step mode factors when every node is diagonal in the sine basis."""
    cache: dict[tuple[float, ...], Array] = {}
    factors = []
    last = None
    for j in range(nt):
        nc = schedule.nodes[j]
        if nc is not last:
            key = _diagonal_key(nc, basis.dim)
            if key is None:
                return None
            if key not in cache:
                cache[key] = _mode_factor(basis, dt, key, j)
            last = nc
        factors.append(cache[key])
    return factors


@dataclass
class _ModeInverse:
    """Doubled inverses of the 1D mode-space step matrices of one schedule.

    ``inv[slots[j]]`` is 2 P_j, P_j = (D + c T Lo_j F)^-1, in one
    (nodes, n, n) stack; nodes shared between steps share a slot.  A
    forward step's midpoint sum is ``rhs @ (2 P_j).T`` and a backward
    step's ``rhs @ (2 P_j)``, the exact transpose.  ``slots`` holds
    Python ints, which index the stack faster than NumPy integers.
    """

    slots: list[int] = field(repr=False)
    inv: Array = field(repr=False)   # (nodes, n, n)


def _hankel(vals: Array, n: int) -> Array:
    """(..., n, n) view with [i, k] = vals[..., i + k]."""
    step = vals.strides[-1]
    return np.lib.stride_tricks.as_strided(
        vals, vals.shape[:-1] + (n, n), vals.strides[:-1] + (step, step),
        writeable=False)


def _toeplitz(vals: Array, n: int) -> Array:
    """(..., n, n) view with [i, k] = vals[..., n - 1 + i - k]."""
    step = vals.strides[-1]
    return np.lib.stride_tricks.as_strided(
        vals[..., n - 1:], vals.shape[:-1] + (n, n),
        vals.strides[:-1] + (step, -step), writeable=False)


def _node_matrices(basis: SineBasis, dt: float,
                   terms: list[tuple[Array, bool, Array | None]],
                   out: Array, work: Array) -> Array:
    """D + c T Lo_j F for a stack of 1D nodes, in closed form, into ``out``.

    With N cells, C_a(p) = sum_x a_x cos(pi p x / N) and S_a its sine
    analogue, each lower-order role is Toeplitz plus Hankel in the modes
    m, k:

        T diag(a0) F      = [C_a0(|m - k|) - C_a0(m + k)] / N,
        T diag(b0) dx F   = [S_b0(m - k) + S_b0(m + k)] kappa_k / N,
        T diag(e) dxx F   = [C_e(|m - k|) - C_e(m + k)] (-kappa_k^2) / N,

    with e = b + a1.  Each of the (one or more) terms is (c/N times C or S
    at p = 0 .. 2n, one row per node; whether it is the odd sine sum; its
    column scale or None).  ``work`` is (2, m, n, n) with m at least the
    stack's length: a later term goes in the first, each Hankel part in
    the second, since a ufunc would buffer the strided view.
    """
    n = basis.shape[0]
    spare, hankel = work[:, :len(out)]
    for i, (vals, odd, col) in enumerate(terms):
        # by offset m - k = -(n - 1) .. n - 1: C is even, S is odd
        near = vals[:, n - 1:0:-1]
        by_offset = np.concatenate([-near if odd else near, vals[:, :n]],
                                   axis=1)
        term = out if i == 0 else spare
        np.copyto(term, _toeplitz(by_offset, n))
        np.copyto(hankel, _hankel(vals[:, 2:], n))
        (np.add if odd else np.subtract)(term, hankel, out=term)
        if col is not None:
            term *= col
        if i:
            out += term
    diag = np.arange(n)
    out[:, diag, diag] += 1.0 + dt / 2 * basis.bilap_modes
    return out


def _neumann_inverse(mats: Array, terms: Array, free: Array,
                     power: Array) -> Array:
    """The doubled inverses 2 M^-1 of a stack of matrices M = (I + R) D, D
    the diagonal of M, by the first 2^K terms of the Neumann series of
    (I + R)^-1 in Euler's product form, K = ``terms`` per node, in
    2 (K - 1) products:

        M^-1 = D^-1 (I - R) (I + R^2) (I + R^4) ... (I + R^(2^(K-1))).

    A node past its own K takes zero for its later powers, which leaves
    its product unchanged to the bit, so its inverse does not depend on
    its stack-mates.  The last row scaling takes 2 D^-1, which doubles
    exactly, and writes the result over ``mats``; ``free`` and ``power``
    are work arrays of its shape.
    """
    idx = np.arange(mats.shape[-1])
    inv_d = 1.0 / mats[:, idx, idx]
    acc = np.multiply(mats, -inv_d[:, None, :], out=mats)
    acc[:, idx, idx] = 0.0     # -R
    power = np.matmul(acc, acc, out=power)   # R^2
    acc[:, idx, idx] = 1.0     # I - R
    last = int(terms.max(initial=2))
    done = int(terms.min(initial=last))
    for i in range(1, last):
        if i >= done:
            power[terms <= i] = 0.0
        # acc (I + power) = acc + acc power
        np.add(acc, np.matmul(acc, power, out=free), out=free)
        acc, free = free, acc
        if i + 1 < last:
            power, free = np.matmul(power, power, out=free), power
    return np.multiply(acc, 2.0 * inv_d[:, :, None], out=mats)


def _invert(mats: Array, work: Array | None = None) -> Array:
    """The doubled inverses 2 M^-1 of a finite stack of node matrices,
    written over ``mats``.

    Every node inversion of the engine is one matrix of one call here.  A
    node whose remainder R = (M - D) D^-1 off its diagonal D has
    rho = ||R||_1 <= 1/2 goes to ``_neumann_inverse`` with the least K >= 2
    for which rho^(2^K) (1 + rho) / (1 - rho) <= 2^-53, every other node
    to ``np.linalg.inv``, then doubled.  A node's inverse does not depend
    on the other nodes of the stack.  ``work`` is (2, m, n, n) with m at
    least the stack's length, or None to allocate it here; the bits are
    the same either way.
    """
    if work is None:
        work = np.empty((2,) + mats.shape)
    absm, power = work[:, :len(mats)]
    np.abs(mats, out=absm)
    diag = np.diagonal(absm, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero diagonal gives inf or nan, which fails the test below
        rho = ((absm.sum(axis=1) - diag) / diag).max(axis=1)
    neumann = rho <= 0.5
    rho = rho[neumann, None]
    # K - 2 counts the k = 2 .. 5 with rho^(2^k) (1 + rho) / (1 - rho) > 2^-53
    terms = 2 + np.count_nonzero(
        rho ** [4, 8, 16, 32] * ((1 + rho) / (1 - rho)) > 2**-53, axis=1)
    if neumann.all():
        return _neumann_inverse(mats, terms, absm, power)   # |M| is spent
    # LAPACK refuses a singular matrix before ``mats`` is written
    lapack = ~neumann
    doubled = np.linalg.inv(mats[lapack])
    doubled *= 2.0
    k = len(terms)
    mats[neumann] = _neumann_inverse(mats[neumann], terms, absm[:k], power[:k])
    mats[lapack] = doubled
    return mats


def _singular(step: int) -> EngineError:
    return EngineError(
        "implicit-step-singular",
        f"implicit step {step} is singular: its mode-space step matrix has "
        f"no finite inverse (reduce dt or the lower-order coefficients)",
        step=step,
    )


def _node_inverses(mats: Array, steps: Array, work: Array) -> Array:
    """The doubled inverses of a finite stack of node matrices, first used
    at ``steps``, written over ``mats`` by ``_invert`` in ``work``.

    Raises ``implicit-step-singular`` naming the first step whose matrix
    is singular (only a matrix that ``_invert`` hands to LAPACK can be,
    and LAPACK then refuses the stack) or has a non-finite inverse.
    """
    inv = None
    try:
        inv = _invert(mats, work)
    except np.linalg.LinAlgError:
        # numpy names no matrix; a zero pivot zeroes the determinant's sign
        ok = np.linalg.slogdet(mats)[0] != 0
    else:
        # max and min propagate NaN and keep +-inf without a full-size mask
        ok = np.isfinite(inv.max(axis=(1, 2))) \
            & np.isfinite(inv.min(axis=(1, 2)))
    if inv is None or not ok.all():
        raise _singular(int(steps[np.argmin(ok)]))
    return inv


def _node_rows(arrays: list[Array | None], n: int) -> Array | None:
    """One row per node, zeros where a node lacks the role; None if all do."""
    if all(a is None for a in arrays):
        return None
    return np.stack([np.zeros(n) if a is None else a for a in arrays])


def _mode_inverse(basis: SineBasis, schedule: Schedule, nt: int,
                  dt: float) -> _ModeInverse | None:
    """The inverted mode-space step matrices of the schedule's distinct nodes.

    Returns None in 2D and when the stack of inverses would exceed
    INVERSE_STACK_CAP_BYTES; those marches solve their steps by GMRES.
    Raises ``implicit-step-singular`` at the first step whose matrix is
    not finite or has no finite inverse and, as the GMRES path does,
    ``implicit-denominator-nonpositive`` at the first whose node's
    mean-coefficient symbol gives 1 + c lambda <= 0.  The matrices are
    built into the stack of inverses and inverted there, chunk by chunk,
    in one workspace of two chunks that the whole build reuses (see
    ``_ModeInverse``).
    """
    if basis.dim != 1:
        return None
    slot_of: dict[int, int] = {}
    firsts: list[tuple[int, NodeCoefficients]] = []
    slots = []
    for j in range(nt):
        nc = schedule.nodes[j]
        if id(nc) not in slot_of:
            slot_of[id(nc)] = len(firsts)
            firsts.append((j, nc))
        slots.append(slot_of[id(nc)])
    n = basis.shape[0]
    if len(firsts) * n * n * 8 > INVERSE_STACK_CAP_BYTES:
        return None
    steps = np.array([j for j, _ in firsts])
    nodes = [nc for _, nc in firsts]
    a0 = _node_rows([nc.a0 for nc in nodes], n)
    b0 = _node_rows([None if nc.b0 is None else nc.b0[0] for nc in nodes], n)
    b = _node_rows([None if nc.b is None else nc.b[0, 0] for nc in nodes], n)
    a1 = _node_rows([nc.a1 for nc in nodes], n)
    e = a1 if b is None else b if a1 is None else b + a1
    big_n = basis.n_cells
    angles = np.pi / big_n * np.outer(np.arange(1, big_n),
                                      np.arange(2 * n + 1))
    kappa = basis.kappa[0]
    terms = []
    # a node that is not diagonal has at least one role
    for rows, table, odd, col in ((a0, np.cos, False, None),
                                  (e, np.cos, False, -kappa**2),
                                  (b0, np.sin, True, kappa)):
        if rows is not None:
            # one product per node, so equal nodes get equal bits anywhere
            sums = (rows[:, None, :] * (dt / 2 / big_n)) @ table(angles)
            terms.append((sums[:, 0], odd, col))
    # every matrix entry is a sum times finite factors
    finite = np.logical_and.reduce([np.isfinite(v).all(axis=1)
                                    for v, _, _ in terms])
    if not finite.all():
        raise _singular(int(steps[np.argmin(finite)]))
    _denominator(basis, dt, tuple(0.0 if rows is None else
                                  rows.mean(axis=1)[:, None]
                                  for rows in (a0, a1, b)), steps)
    chunk = min(len(nodes), max(1, INVERSE_CHUNK_BYTES // (n * n * 8)))
    inv = np.empty((len(nodes), n, n))
    work = np.empty((2, chunk, n, n))
    for i in range(0, len(nodes), chunk):
        part = slice(i, i + chunk)
        mats = _node_matrices(basis, dt, [(v[part], odd, col)
                                          for v, odd, col in terms],
                              inv[part], work)
        _node_inverses(mats, steps[part], work)
    return _ModeInverse(slots, inv)


def _row_norms(x: Array, dim: int) -> Array:
    """Euclidean norm of each field of a (..., *shape) stack."""
    return np.sqrt(np.add.reduce(x * x, axis=tuple(range(-dim, 0))))


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


class _KrylovSolve:
    """The midpoint sum 2 mid_j, mid_j from (D + c T Lo_j F) mid_j = rhs or
    from its transpose, by GMRES on the node's operator preconditioned with
    its mean-coefficient symbol, which ``_denominator`` checks positive."""

    def __init__(self, basis: SineBasis, schedule: Schedule, dt: float,
                 transpose: bool):
        self.basis = basis
        self.schedule = schedule
        self.dt = dt
        self.c = dt / 2
        self.lower = _lower_apply_t if transpose else _lower_apply
        self.denom = 1.0 + self.c * basis.bilap_modes
        self._node = self._pre = None

    def __call__(self, j: int, rhs: Array, out: Array | None = None) -> Array:
        basis, c = self.basis, self.c
        nc = self.schedule.nodes[j]
        if nc is not self._node:
            self._node, self._pre = nc, _denominator(
                basis, self.dt, _mean_key(nc, basis.dim), j)

        def op(m: Array) -> Array:
            return self.denom * m + c * basis.to_modes(
                self.lower(basis, nc, basis.from_modes(m)))

        return np.multiply(_gmres(op, rhs, self._pre, basis.dim, j), 2.0,
                           out=out)


def _solver(basis: SineBasis, schedule: Schedule, nt: int, dt: float,
            transpose: bool) -> Callable[..., Array]:
    """solve(j, rhs, out=None) -> u^_j + u^_{j+1}, step j's midpoint sum.

    The sum is twice the midpoint in modes, to the bit, and is written into
    ``out`` when given.  The march's cheapest exact solver (diagonal
    factors, 1D inverses or GMRES) is cached on the schedule.
    """
    key = (dt, nt, basis.extents, basis.n_cells)
    if schedule.factors is None or schedule.factors[0] != key:
        schedule.factors = (key, _scan_diagonal(basis, schedule, nt, dt)
                            or _mode_inverse(basis, schedule, nt, dt))
    factors = schedule.factors[1]
    if isinstance(factors, list):
        return lambda j, rhs, out=None: np.multiply(factors[j], rhs, out=out)
    if factors is None:
        return _KrylovSolve(basis, schedule, dt, transpose)
    inv, slots = factors.inv, factors.slots
    if not transpose:
        inv = inv.transpose(0, 2, 1)
    return lambda j, rhs, out=None: np.matmul(rhs, inv[slots[j]], out=out)


def _relax(solve_with: Callable[[Array], Array], basis: SineBasis, j: int,
           x: Array, u: Array, reaction) -> Array:
    """Step j with the reaction at the midpoint, by lagged iteration.

    ``solve_with(F^)`` is step j's midpoint sum in modes with the
    reaction's modes F^ on the left, -c F^ added to its right-hand side.
    Starts from F(u_j) and re-solves with F at the latest midpoint; a
    field stops updating once its update meets RELAX_TOL (1 + |u_j|).
    Steps the state ``x`` (in modes) in place and returns the physical
    midpoint.
    """
    dim = basis.dim
    scale = 1.0 + _row_norms(u, dim)
    total, mid = None, u
    active = np.ones(np.shape(scale), dtype=bool)
    trail = []
    for _ in range(RELAX_CAP):
        cand_total = solve_with(basis.to_modes(reaction(mid)))
        cand = 0.5 * basis.from_modes(cand_total)
        # the state moves twice as far as the midpoint average
        trail.append(2.0 * _row_norms(cand - mid, dim) / scale)
        if active.all():
            total, mid = cand_total, cand
        else:
            keep = _rows(active, dim)
            total = np.where(keep, cand_total, total)
            mid = np.where(keep, cand, mid)
        active &= trail[-1] > RELAX_TOL
        if not active.any():
            np.subtract(total, x, out=x)
            return mid
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
) -> Trajectory:
    """The one CN step loop behind every march (see the module notes)."""
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
    solve = _solver(basis, schedule, nt, dt, transpose)
    c = dt / 2
    # a full-grid source goes to modes in one product and is scaled by c
    # there (and is not held after); a boxed one goes a block at a time on
    # its box, so it never grows into a full mode stack
    full_modes = None
    if source is not None and source_box is None:
        full_modes, source = basis.to_modes(source), None
        full_modes *= c
    # a zero start (y0 = 0, every costate's terminal) needs no transform;
    # x is the march's own state, stepped in place
    x = basis.to_modes(first) if first.any() else np.zeros_like(first)
    rhs = None if full_modes is None else np.empty_like(x)
    # a linear march steps in blocks of k steps, each filled in marching
    # order (from the top going backward); a nonlinear one in single steps
    k = 1 if reaction is not None else \
        max(1, min(nt, HOOK_BLOCK_BYTES // x.nbytes))
    blocks = ((max(0, hi - k), hi) for hi in range(nt, 0, -k)) if transpose \
        else ((lo, min(lo + k, nt)) for lo in range(0, nt, k))
    # a march without hook or reaction writes each midpoint sum into its
    # record and halves the record at the end; a hooked one reuses one
    # block of work slots for the sums
    defer = reaction is None and on_step is None
    fields = np.empty((nt,) + x.shape) if defer else None
    work = np.empty((k,) + x.shape) if reaction is None and not defer else None
    u = first
    for lo, hi in blocks:
        # a boxed source's modes are fresh: each step's slot takes its
        # right-hand side in place, unless the rows of a stack share it.
        # A single 1D field per step goes as a one-row stack, so every
        # step's product has one shape at any block size
        g = None
        if source is not None:
            block = source[lo:hi]
            g = basis.to_modes(block[:, None], source_box)[:, 0] \
                if block.ndim == 2 else basis.to_modes(block, source_box)
            g *= c
        if reaction is None:
            totals = fields[lo:hi] if defer else work[:hi - lo]
        for j in (range(hi - 1, lo - 1, -1) if transpose else range(lo, hi)):
            # u^_j + c g^_j, step j's right-hand side in modes
            if full_modes is not None:
                rhs_j = np.add(x, full_modes[j], out=rhs)
            elif g is not None:
                g_j = g[j - lo]
                rhs_j = np.add(x, g_j, out=g_j if g_j.shape == x.shape else None)
            else:
                rhs_j = x
            if reaction is None:
                np.subtract(solve(j, rhs_j, totals[j - lo]), x, out=x)
            else:
                mid = _relax(lambda f: solve(j, rhs_j - c * f), basis, j, x, u,
                             reaction)
                total = 2.0 * mid
                u = total - u
                totals = total[None]
        if defer:
            continue
        rec = mid[None] if on_step is None else on_step(lo, totals)
        if fields is None:
            fields = np.empty((nt,) + np.shape(rec)[1:])
        fields[lo:hi] = rec
    full_modes = None  # free the source modes before the record converts
    if defer:
        rows = max(1, RECORD_CHUNK_BYTES // fields[0].nbytes)
        for t in range(0, nt, rows):
            chunk = fields[t:t + rows]
            chunk *= 0.5
            fields[t:t + rows] = basis.from_modes(chunk)
    state = basis.from_modes(x)
    if transpose:
        return Trajectory(basis, dt, fields, state0=state, stateT=first)
    return Trajectory(basis, dt, fields, state0=first, stateT=state)


def solve_forward(
    grid: Grid,
    schedule: Schedule,
    initial: Array,
    source: Array | None = None,
    on_step: Callable[[int, Array], Array] | None = None,
    source_box: tuple[slice, ...] | None = None,
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
    on_step : callable(lo, totals) -> array, optional
        Sees a block of consecutive steps' midpoint sums u_j + u_{j+1},
        twice the midpoint averages, as sine coefficients, ``totals[i]``
        for step lo + i, and returns what ``fields[lo:lo + len(totals)]``
        records, so a batched march can stream a reduction instead of
        storing every row.  Blocks hold HOOK_BLOCK_BYTES of states (at
        least one step).  Halving is exact, so ``0.5 * totals`` is the
        averages to the bit.  ``totals`` is a work array the next block
        overwrites.  A hook that needs node values converts them, on a
        box only with ``basis.from_modes(totals, box)``.  The end states
        stay physical.
    source_box : tuple of slices, optional
        A box of nodes, one slice per axis, that holds the source.

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
                  source_box=source_box)


def solve_backward(
    grid: Grid,
    schedule: Schedule,
    terminal: Array,
    source: Array | None = None,
    on_step: Callable[[int, Array], Array] | None = None,
    source_box: tuple[slice, ...] | None = None,
) -> Trajectory:
    """March the exact transpose steps from t = T down to t = 0.

    The result's ``state0`` is the adjoint state at t = 0 on the integer
    node, the quantity every duality identity below refers to.  The
    stack, the (shared or per-row) source, ``on_step`` and ``source_box``
    are as in :func:`solve_forward`; ``on_step`` sees the blocks from the
    last steps down to the first, each in time order.
    """
    return _march(grid, schedule, terminal, source, True, on_step=on_step,
                  source_box=source_box)


def solve_forward_nonlinear(
    grid: Grid,
    schedule: Schedule,
    nonlinearity: NonlinearitySpec,
    initial: Array,
    source: Array | None = None,
    on_step: Callable[[int, Array], Array] | None = None,
) -> Trajectory:
    """Forward solve of y_t + A y + F(y) = g, F = F(u, grad u, hess u).

    The reaction enters the step loop of :func:`solve_forward` as the
    source -F at the midpoint average, relaxed per step by lagged
    iteration; it takes only the jet slots F reads.  A zero reaction
    goes through the same relaxation.  ``initial`` and ``source`` (g) are
    as there, and ``on_step(lo, totals)`` has its signature but sees the
    node values of the midpoint sums, twice the midpoints, in blocks of
    one step.  ``fields`` records the midpoints when there is no hook.

    Raises
    ------
    EngineError
        ``inner-solve-divergence`` when a step's relaxation stalls; its
        context names the ``step``, the ``row`` of a batched start and the
        relative ``updates`` trail.
    """
    basis = grid.basis

    def reaction(u: Array) -> Array:
        return nonlinearity.f(*nonlinearity.jet(basis, u))

    return _march(grid, schedule, initial, source, False, reaction, on_step)


def duality_residual(
    y: Trajectory,
    psi: Trajectory,
    v: np.ndarray | None,
    f: np.ndarray | None,
    phi: Trajectory,
    obs_values: Array,
) -> float:
    """Normalized gap of the summed duality identity.

    With y driven by the acting control v = chi_omega v (the form
    :func:`cascade_sentinel.solve_cascade` takes) plus f, and (phi, psi)
    the adjoint pair driven by chi_obs phi, the exact-transpose marching
    makes

        int_Q chi_obs phi y = int_Q (v + f) psi

    an identity of the discrete quadratures; the residual is its gap
    normalized by 1 + |left side|.
    """
    basis = y.basis
    dt = y.dt
    lhs = dt * basis.cell_volume * float(np.sum(obs_values * phi.fields * y.fields))
    rhs = 0.0
    if v is not None:
        rhs += dt * basis.cell_volume * float(np.sum(v * psi.fields))
    if f is not None:
        rhs += dt * basis.cell_volume * float(np.sum(f * psi.fields))
    return abs(lhs - rhs) / (1.0 + abs(lhs))

