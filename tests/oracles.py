"""Reference oracles the tests check the library against.

The penalized functional J and the gradient of its smooth part, each
evaluated by marching the adjoint pair (and the cascade) from one seed,
and the sentinel functional of a stored trajectory.  The library never
evaluates J itself, and it accumulates the sentinel step by step inside
its probe marches.  ``reference_march`` is the Crank-Nicolson march
in its textbook form, one midpoint solve and one update per step, which
the engine's midpoint-sum loop must match to the bit.
"""
import numpy as np

from insens4 import pde_engine

from insens4.cascade_sentinel import (
    AdjointPair,
    CascadeOperators,
    linearized_operators,
    solve_adjoint_pair,
    solve_cascade,
)
from insens4.errors import SynthesisError
from insens4.hum_synthesis import VARIANTS
from insens4.pde_engine import Trajectory
from insens4.problem_setup import ValidatedProblem

Array = np.ndarray


def eval_j(
    problem: ValidatedProblem,
    phi0: Array,
    variant: str = "exact",
    ops: CascadeOperators | None = None,
) -> tuple[float, AdjointPair]:
    """Penalized functional value at phi0, with its adjoint pair.

    J = 1/2 int_{Q_omega} |psi|^2 + P(phi0) + int_Q f psi, where f is
    the full affine state source (the forcing plus, in the frozen
    regime, the constant reaction offset), and eps = ``problem.epsilon``.
    """
    if variant not in VARIANTS:
        raise SynthesisError("unknown-variant",
                             f"variant must be one of {VARIANTS}, got {variant!r}")
    eps = problem.epsilon
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

    The control is v = chi_omega psi of the adjoint pair, the force is
    on, so the returned field equals Lambda phi0 + b by superposition.
    """
    ops = ops or linearized_operators(problem)
    pair = solve_adjoint_pair(problem, phi0, ops=ops)
    casc = solve_cascade(problem, problem.omega.values * pair.psi.fields,
                         ops=ops, include_force=True)
    return casc.q0


def sentinel(y: Trajectory, obs_values: Array) -> float:
    """Phi(y) = 1/2 int_Q chi_obs |y|^2 by midpoint quadrature."""
    return float(0.5 * y.dt * y.basis.cell_volume * np.sum(obs_values * y.fields**2))


def _linear_solver(grid, schedule, backward):
    """solve(j, rhs) -> mid_j in modes, from (I + c A_j) mid_j = rhs.

    On a schedule diagonal in the sine basis mid_j = f_j rhs with
    f_j = 1 / (1 + c lambda_j); in 1D mid_j = P_j rhs with P_j the inverse
    of the node's mode-space step matrix (the engine caches 2 P_j, so the
    halving is exact); in 2D GMRES preconditioned with the node's
    mean-coefficient symbol.  The backward march takes the transposes.
    """
    basis, dt, dim = grid.basis, grid.dt, grid.dim
    c = dt / 2
    keys = [pde_engine._diagonal_key(nc, dim) for nc in schedule.nodes]
    if all(key is not None for key in keys):
        factors = [1.0 / (1.0 + c * pde_engine._symbol(basis, key))
                   for key in keys]
        return lambda j, rhs: factors[j] * rhs
    if dim == 1:
        stack = pde_engine._mode_inverse(basis, schedule, grid.n_steps, dt)
        inv = 0.5 * stack.inv
        if not backward:
            inv = inv.transpose(0, 2, 1)
        return lambda j, rhs: rhs @ inv[stack.slots[j]]
    lower = pde_engine._lower_apply_t if backward else pde_engine._lower_apply
    denom = 1.0 + c * basis.bilap_modes

    def gmres(j, rhs):
        nc = schedule.nodes[j]
        pre = 1.0 + c * pde_engine._symbol(basis, pde_engine._mean_key(nc, dim))

        def op(m):
            return denom * m + c * basis.to_modes(
                lower(basis, nc, basis.from_modes(m)))

        return pde_engine._gmres(op, rhs, np.where(pre > 0, pre, denom), dim, j)

    return gmres


def _relax(solve, basis, rhs, c, x, u, reaction):
    """Lagged iteration for the midpoint with the reaction at it.

    Starts from F(u_j); a row stops updating once its update meets
    RELAX_TOL (1 + |u_j|).  Returns the midpoint in modes and in values.
    """
    dim = basis.dim

    def norms(v):
        return np.sqrt(np.sum(v * v, axis=tuple(range(-dim, 0))))

    scale = 1.0 + norms(u)
    mid_modes, mid = x, u
    active = np.ones(np.shape(scale), dtype=bool)
    for _ in range(pde_engine.RELAX_CAP):
        cand_modes = solve(rhs - c * basis.to_modes(reaction(mid)))
        cand = basis.from_modes(cand_modes)
        update = 2.0 * norms(cand - mid) / scale
        keep = np.reshape(active, np.shape(active) + (1,) * dim)
        mid_modes = np.where(keep, cand_modes, mid_modes)
        mid = np.where(keep, cand, mid)
        active &= update > pde_engine.RELAX_TOL
        if not active.any():
            return mid_modes, mid
    raise AssertionError("reference relaxation stalled")


def reference_march(grid, schedule, start, source=None, backward=False,
                    source_box=None, nonlinearity=None, on_step=None):
    """The CN march in textbook form: (record, end state).

    Step j solves (I + c A_j) mid_j = u^_j + c g^_j for the midpoint in
    sine coefficients and sets u^_{j+1} = 2 mid_j - u^_j.  A reaction F
    solves y_t + A y + F(y) = g: -F at the midpoint is one more source,
    relaxed per step.  ``on_step(j, mids)`` has the engine's block
    signature and sees a block of one step, ``mids = mid[None]``: the
    midpoint itself, as modes in a linear
    march and as node values in a nonlinear one; it returns what the
    record keeps for that block.  The source goes to modes as the engine
    takes it (a full grid in one product, a box step by step, with a
    single 1D field as a one-row stack), and a linear record without a
    hook converts in the engine's chunks of steps, so every product has
    the engine's shape.
    """
    basis, nt, c = grid.basis, grid.n_steps, grid.dt / 2
    solve = _linear_solver(grid, schedule, backward)
    first = np.asarray(start, dtype=float)
    x = basis.to_modes(first) if first.any() else np.zeros_like(first)
    full = None
    if source is not None and source_box is None:
        full = c * basis.to_modes(np.asarray(source, dtype=float))
    reaction = None if nonlinearity is None else \
        (lambda v: nonlinearity.f(*nonlinearity.jet(basis, v)))
    u = first
    record = [None] * nt
    for j in (range(nt - 1, -1, -1) if backward else range(nt)):
        if full is not None:
            rhs = x + full[j]
        elif source is not None:
            g = source[j]
            g = basis.to_modes(g[None], source_box)[0] if g.ndim == 1 \
                else basis.to_modes(g, source_box)
            rhs = x + c * g
        else:
            rhs = x
        if reaction is None:
            mid = solve(j, rhs)
            x = 2.0 * mid - x
        else:
            mid_modes, mid = _relax(lambda b: solve(j, b), basis, rhs, c, x,
                                    u, reaction)
            x = 2.0 * mid_modes - x
            u = 2.0 * mid - u
        record[j] = mid if on_step is None else on_step(j, mid[None])[0]
    record = np.array(record)
    if reaction is None and on_step is None:
        rows = max(1, pde_engine.RECORD_CHUNK_BYTES // record[0].nbytes)
        record = np.concatenate([basis.from_modes(record[t:t + rows])
                                 for t in range(0, nt, rows)])
    return record, basis.from_modes(x)
