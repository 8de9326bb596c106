"""The engine's march against the textbook march, to the bit.

The engine steps on midpoint sums u_j + u_{j+1}: every solver returns the
sum, twice the midpoint, and the state steps by one subtraction.  Doubling
and halving are exact, so every record, end state and hook reduction must
equal the textbook march of ``oracles.reference_march`` bit for bit, on
every solver path, in both directions, with and without a source, and
with the record deferred or taken by a hook.  The library's own hooks
(the observability sampler's and the sentinel's) fold the halving into
their factors and must give the bits the hooks on the midpoints gave.

A linear march takes its boxed source and hands its sums to a hook a
block of steps at a time.  Each block's stacked products run the per-step
shapes, so a stack's record has the same bits at any block size.
"""
import math

import numpy as np
import pytest

from insens4 import hum_synthesis, pde_engine
from insens4.cascade_sentinel import linearized_operators, sentinel_sensitivity
from insens4.config import apply_quick, default_config, problem_from_config
from insens4.hum_synthesis import _ratio_stack
from insens4.nonlinearity import make_nonlinearity
from insens4.pde_engine import (
    Trajectory,
    make_schedule,
    solve_backward,
    solve_forward,
    solve_forward_nonlinear,
)
from insens4.problem_setup import CoefficientField, build_grid
from insens4.semilinear_loop import tangent_schedule
from conftest import unit_smooth
from oracles import reference_march

# path -> (dimension, coefficients that route a march to it)
PATHS = {
    "diagonal-1d": (1, {"a0": 0.7, "a1": 0.2, "bii": 0.1}),
    "diagonal-2d": (2, {"a0": 0.7, "a1": 0.2, "bii": 0.1}),
    "inverse-1d": (1, {"a0": 0.7, "a1": 0.2, "bii": 0.1, "b0": 0.4, "amp": 1.0}),
    "gmres-2d": (2, {"a0": 0.7, "a1": 0.2, "bii": 0.1, "b0": 0.4, "amp": 1.0}),
}


def _coefficients(dim, a0, a1, bii, b0=0.0, amp=0.0):
    coeffs = {"a0": CoefficientField.constant("a0", a0, dim),
              "a1": CoefficientField.constant("a1", a1, dim),
              "b": CoefficientField.constant("b", bii * np.eye(dim), dim)}
    if b0:
        coeffs["b0"] = CoefficientField.constant("b0", np.full(dim, b0), dim)
    if amp:
        def damping(*mesh_t):
            shape = np.broadcast(*mesh_t[:-1]).shape
            return a0 + amp * np.sin(np.pi * mesh_t[0]) * np.ones(shape)

        coeffs["a0"] = CoefficientField.from_callable("a0", damping,
                                                      abs(a0) + amp)
    return coeffs


def _case(path):
    dim, draw = PATHS[path]
    grid = build_grid(1, 2.0, 16, 0.5, 16) if dim == 1 else \
        build_grid(2, 2.0, 8, 0.5, 16)
    rng = np.random.default_rng(31)
    starts = np.array([unit_smooth(grid.basis, rng) for _ in range(3)])
    source = rng.standard_normal((grid.n_steps,) + grid.shape)
    box = (slice(2, 6),) * dim
    return grid, make_schedule(grid, _coefficients(dim, **draw)), starts, \
        source, box


def _assert_bitwise(got, want):
    for name, a, b in zip(("record", "end state"), got, want):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


class TestLinearMarch:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("source", ["none", "full", "box"])
    @pytest.mark.parametrize("hooked", [False, True], ids=["deferred", "hooked"])
    def test_matches_reference(self, path, backward, source, hooked):
        grid, schedule, starts, values, box = _case(path)
        basis = grid.basis
        kwargs = {}
        if source == "full":
            kwargs["source"] = values
        elif source == "box":
            kwargs.update(source=values[(...,) + box], source_box=box)
        record_box = (slice(1, 5),) * grid.dim
        want = reference_march(
            grid, schedule, starts, backward=backward,
            on_step=(lambda lo, mids: basis.from_modes(mids, record_box))
            if hooked else None, **kwargs)
        solve = solve_backward if backward else solve_forward
        # the engine's hook sees the midpoint sums, twice the midpoints
        traj = solve(grid, schedule, starts, on_step=(
            lambda lo, totals: 0.5 * basis.from_modes(totals, record_box))
            if hooked else None, **kwargs)
        _assert_bitwise((traj.fields, traj.state0 if backward else traj.stateT),
                        want)
        # the start is the caller's, untouched
        assert np.array_equal(traj.stateT if backward else traj.state0, starts)


class TestHookBlocks:
    @pytest.mark.parametrize("path", ["diagonal-1d", "inverse-1d", "gmres-2d"])
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("rows", ["shared", "per-row"])
    def test_block_size_keeps_bits(self, monkeypatch, path, backward, rows):
        # blocks of one step, of 3 steps (16 steps end in a block of one)
        # and of the whole march give the reference march's bits
        grid, schedule, starts, values, box = _case(path)
        basis = grid.basis
        source = values[(...,) + box]
        if rows == "per-row":
            source = np.stack([source, -0.5 * source, source[::-1]], axis=1)
        record_box = (slice(1, 5),) * grid.dim
        want = reference_march(
            grid, schedule, starts, source, backward=backward, source_box=box,
            on_step=lambda lo, mids: basis.from_modes(mids, record_box))
        solve = solve_backward if backward else solve_forward
        for steps in (1, 3, grid.n_steps):
            monkeypatch.setattr(pde_engine, "HOOK_BLOCK_BYTES",
                                steps * starts.nbytes)
            blocks = []

            def on_box(lo, totals):
                blocks.append((lo, len(totals)))
                return 0.5 * basis.from_modes(totals, record_box)

            traj = solve(grid, schedule, starts, source, on_step=on_box,
                         source_box=box)
            _assert_bitwise((traj.fields,
                             traj.state0 if backward else traj.stateT), want)
            # (first step, length) in marching order, from the top backward
            nt = grid.n_steps
            assert blocks == ([(max(0, hi - steps), min(steps, hi))
                               for hi in range(nt, 0, -steps)] if backward else
                              [(lo, min(steps, nt - lo))
                               for lo in range(0, nt, steps)])


class TestNonlinearMarch:
    @pytest.mark.parametrize("path", ["inverse-1d", "gmres-2d"])
    @pytest.mark.parametrize("kind", ["tanh", "mixed"])
    @pytest.mark.parametrize("source", ["none", "full"])
    @pytest.mark.parametrize("hooked", [False, True], ids=["record", "hooked"])
    def test_matches_reference(self, path, kind, source, hooked):
        grid, schedule, starts, values, _ = _case(path)
        nl = make_nonlinearity(kind, scale=0.5, dim=grid.dim)
        values = values if source == "full" else None
        record_box = (...,) + (slice(1, 5),) * grid.dim
        want = reference_march(
            grid, schedule, 2.0 * starts, values, nonlinearity=nl,
            on_step=(lambda lo, mids: mids[record_box]) if hooked else None)
        # a nonlinear hook sees the sum's node values, one step per block
        traj = solve_forward_nonlinear(
            grid, schedule, nl, 2.0 * starts, values,
            on_step=(lambda lo, totals: 0.5 * totals[record_box]) if hooked else None)
        _assert_bitwise((traj.fields, traj.stateT), want)


def _problem(dim, kind="zero", b0=False):
    cfg = apply_quick(default_config())
    cfg["nonlinearity"] = {"kind": kind, "scale": 0.5}
    if dim == 2:
        cfg["grid"].update(dimension=2, steps=24)
        cfg["domains"].update(omega="0.6:1.4,0.6:1.4", obs="1.0:1.8,1.0:1.8")
    if b0:
        # a first-order term: 1D inverses, 2D GMRES
        cfg["coefficients"]["b0"] = [0.3] * dim
    return problem_from_config(cfg)


class TestLibraryHooks:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("b0", [False, True], ids=["diagonal", "b0"])
    def test_ratio_stack_matches_midpoint_hooks(self, monkeypatch, dim, b0):
        # the sampler's adjoint pair with hooks on the midpoints themselves
        p = _problem(dim, b0=b0)
        grid, basis, obs, omega = p.grid, p.basis, p.obs, p.omega
        rng = np.random.default_rng(8)
        phi0s = np.array([unit_smooth(basis, rng) for _ in range(3)])
        weights = np.exp(-1.0 / grid.times)
        ops = linearized_operators(p)
        # the ratios are homogeneous in phi, so psi's energies are kept too
        marched = []

        def kept(*args, **kwargs):
            marched.append(solve_backward(*args, **kwargs))
            return marched[-1]

        monkeypatch.setattr(hum_synthesis, "solve_backward", kept)
        got = _ratio_stack(p, phi0s, weights, ops)

        obs_values = obs.values[obs.box]
        omega_values = omega.values[omega.box].ravel()
        parseval = basis.mode_volume / basis.cell_volume

        def energies(lo, mids):
            steps, rows = mids.shape[:2]
            on_omega = basis.from_modes(mids, omega.box).reshape(steps, rows, -1)
            mids = mids.reshape(steps, rows, -1)
            return np.stack([
                parseval * np.einsum("kbi,kbi->kb", mids, mids),
                np.einsum("i,kbi,kbi->kb", omega_values, on_omega, on_omega)],
                axis=1)

        phi, _ = reference_march(grid, ops.costate_schedule, phi0s, on_step=(
            lambda lo, mids: obs_values * basis.from_modes(mids, obs.box)))
        psi, _ = reference_march(grid, ops.state_schedule, np.zeros(phi0s.shape),
                                 phi, backward=True, source_box=obs.box,
                                 on_step=energies)
        assert np.array_equal(marched[0].fields, psi)
        cell = grid.dt * basis.cell_volume
        nums = cell * (weights @ psi[:, 0])
        dens = cell * np.sum(psi[:, 1], axis=0)
        assert got == [(float(n / d), "ok") for n, d in zip(nums, dens)]
        assert not any(math.isnan(r) for r, _ in got)

    @pytest.mark.parametrize("kind", ["zero", "tanh"])
    def test_sentinel_matches_midpoint_hook(self, kind):
        p = _problem(1, kind)
        grid, basis = p.grid, p.basis
        rng = np.random.default_rng(4)
        v = p.omega.values * rng.standard_normal((grid.n_steps,) + grid.shape)
        yhats = np.array([unit_smooth(basis, rng) for _ in range(2)])
        tau = 0.05
        reports = sentinel_sensitivity(p, v, yhats, tau_probe=tau)

        source = p.force_fields + v
        offsets = np.array([tau, -tau, tau / 2, -tau / 2])
        base = make_schedule(grid, p.coefficients)
        zero = np.zeros(grid.shape)
        if kind == "zero":
            # linear probes by superposition: y0 plus each offset times the
            # midpoints of its direction's source-free march
            y0, _ = reference_march(grid, base, zero, source)
            d, _ = reference_march(grid, base, yhats, on_step=(
                lambda lo, modes: basis.from_modes(modes)))
            probes = y0[:, None, None] + offsets[:, None] * d[:, :, None]
            costate = base
        else:
            # one batched march of y0 and every probe, midpoints kept
            starts = np.concatenate([zero[None],
                                     (offsets[None, :, None] * yhats[:, None])
                                     .reshape(-1, *grid.shape)])
            mids, ends = reference_march(grid, base, starts, source,
                                         nonlinearity=p.nonlinearity,
                                         on_step=lambda lo, m: m)
            y0, end = mids[:, 0], ends[0]
            probes = mids[:, 1:].reshape(grid.n_steps, -1, 4, *grid.shape)
            costate = tangent_schedule(p, Trajectory(basis, grid.dt, y0, zero, end))
        sums = np.sum(p.obs.values * probes**2, axis=-1)
        phis = 0.5 * grid.dt * basis.cell_volume * np.sum(sums, axis=0)
        # the dual side reads the tau = 0 midpoints
        q = solve_backward(grid, costate, np.zeros(grid.shape),
                           p.obs.values * y0)
        for i, report in enumerate(reports):
            assert report.phi_plus == phis[i, 0]
            assert report.phi_minus == phis[i, 1]
            assert report.d_fd_half == (phis[i, 2] - phis[i, 3]) / tau
            assert report.d_dual == basis.inner(q.state0, yhats[i])
