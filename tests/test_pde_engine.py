"""Time marching: exact single-mode recursions, order, duality pieces.

The march is Crank-Nicolson on the mode-diagonal part, so one sine mode
with a constant reaction follows the scalar rational recursion
g(n+1) = g(n) (1 - c) / (1 + c) with c = dt (kappa^4 + a0) / 2 exactly.
Every oracle below is that recursion recomputed in plain floats.
"""
import dataclasses

import numpy as np
import pytest

from insens4 import pde_engine
from insens4.errors import EngineError
from insens4.nonlinearity import make_nonlinearity
from insens4.pde_engine import (
    NodeCoefficients,
    Schedule,
    SpatialOperator,
    duality_residual,
    make_schedule,
    solve_backward,
    solve_forward,
    solve_forward_nonlinear,
)
from insens4.problem_setup import CoefficientField, build_grid
from insens4.spectral import SineBasis
from conftest import count_inverse_paths, count_transforms


def _mode(grid, k):
    e = np.zeros(grid.basis.shape)
    e[k - 1] = 1.0
    return grid.basis.from_modes(e)


def _rational_march(mu, dt, n_steps, g0=1.0, source=None):
    """Scalar CN recursion; returns integer-node values g_0 .. g_Nt."""
    c = dt * mu / 2
    g = [float(g0)]
    for j in range(n_steps):
        rhs = (1 - c) * g[-1]
        if source is not None:
            rhs += dt * source[j]
        g.append(rhs / (1 + c))
    return np.array(g)


class TestSingleModeRecursion:
    def test_terminal_and_midpoints(self):
        grid = build_grid(1, 2.0, 32, 1.0, 50)
        k, a0 = 2, 0.7
        mu = (k * np.pi / 2.0) ** 4 + a0
        coeffs = {"a0": CoefficientField.constant("a0", a0), "b0": None,
                  "b": None, "a1": None}
        traj = solve_forward(grid, make_schedule(grid, coeffs), _mode(grid, k))
        g = _rational_march(mu, grid.dt, grid.n_steps)
        got_T = grid.basis.to_modes(traj.stateT)[k - 1]
        assert got_T == pytest.approx(g[-1], rel=1e-13)
        # stored fields are midpoint averages of the integer-node states
        mid = (g[:-1] + g[1:]) / 2
        got_mid = np.array([grid.basis.to_modes(f)[k - 1] for f in traj.fields])
        assert np.allclose(got_mid, mid, rtol=1e-12, atol=1e-15)
        # no leakage into other modes
        other = grid.basis.to_modes(traj.stateT)
        other[k - 1] = 0.0
        assert np.abs(other).max() <= 1e-14

    def test_constant_source(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        k = 1
        mu = (np.pi / 2.0) ** 4
        src_vals = np.full(grid.n_steps, 0.8)
        source = np.array([0.8 * _mode(grid, k) for _ in range(grid.n_steps)])
        traj = solve_forward(grid, make_schedule(grid, {}), np.zeros(grid.basis.shape),
                             source=source)
        g = _rational_march(mu, grid.dt, grid.n_steps, g0=0.0, source=src_vals)
        got = grid.basis.to_modes(traj.stateT)[k - 1]
        assert got == pytest.approx(g[-1], rel=1e-13)

    def test_backward_matches_reversed_recursion(self):
        grid = build_grid(1, 2.0, 32, 1.0, 50)
        k, a0 = 3, 0.4
        mu = (3 * np.pi / 2.0) ** 4 + a0
        coeffs = {"a0": CoefficientField.constant("a0", a0)}
        traj = solve_backward(grid, make_schedule(grid, coeffs), _mode(grid, k))
        g = _rational_march(mu, grid.dt, grid.n_steps)
        got0 = grid.basis.to_modes(traj.state0)[k - 1]
        assert got0 == pytest.approx(g[-1], rel=1e-13)

    def test_time_varying_schedule_samples_midpoints(self):
        grid = build_grid(1, 2.0, 16, 0.5, 24)
        k = 1
        kap4 = (np.pi / 2.0) ** 4
        a0_of_t = lambda t: 0.5 + 2.0 * t
        shape = grid.basis.shape
        nodes = [NodeCoefficients(a0=np.full(shape, a0_of_t(t)))
                 for t in grid.times]
        traj = solve_forward(grid, Schedule(nodes), _mode(grid, k))
        g = 1.0
        for t in grid.times:
            c = grid.dt * (kap4 + a0_of_t(t)) / 2
            g = g * (1 - c) / (1 + c)
        assert grid.basis.to_modes(traj.stateT)[k - 1] == pytest.approx(g, rel=1e-12)


class TestTemporalOrder:
    def test_second_order_in_dt(self):
        # manufactured solution g(t) P(x) with P one discrete mode and the
        # source built from the discrete operator, so the error is purely
        # temporal
        def error(n_steps):
            grid = build_grid(1, 2.0, 24, 1.0, n_steps)
            basis = grid.basis
            p = _mode(grid, 1)
            coeffs = {"a0": CoefficientField.constant("a0", 0.3)}
            ap = SpatialOperator(basis, make_schedule(grid, coeffs).nodes[0]).apply(p)
            g = lambda t: np.exp(-t) * (1 + 0.5 * np.sin(3 * t))
            gp = lambda t: np.exp(-t) * (1.5 * np.cos(3 * t) - 1 - 0.5 * np.sin(3 * t))
            source = np.array([gp(t) * p + g(t) * ap for t in grid.times])
            traj = solve_forward(grid, make_schedule(grid, coeffs), g(0.0) * p,
                                 source=source)
            return basis.norm(traj.stateT - g(1.0) * p)

        e24, e48 = error(24), error(48)
        assert e24 / e48 >= 3.4
        assert e48 < e24


class TestNonlinearMarch:
    def test_linear_kind_matches_shifted_reaction(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        rng = np.random.default_rng(5)
        y0 = rng.standard_normal(grid.basis.shape)
        alpha = 0.8
        base = {"a0": CoefficientField.constant("a0", 1.1)}
        nl = make_nonlinearity("linear", scale=alpha)
        got = solve_forward_nonlinear(grid, make_schedule(grid, base), nl, y0)
        # y_t + A y + alpha y = 0: the reaction shifts a0 by +alpha
        shifted = {"a0": CoefficientField.constant("a0", 1.1 + alpha)}
        want = solve_forward(grid, make_schedule(grid, shifted), y0)
        # agreement is limited by the per-step fixed-point tolerance
        assert np.allclose(got.stateT, want.stateT, rtol=0, atol=1e-9)
        assert np.allclose(got.fields, want.fields, rtol=0, atol=1e-9)

    def test_zero_kind_is_plain_linear(self):
        grid = build_grid(1, 2.0, 16, 0.5, 24)
        y0 = np.random.default_rng(6).standard_normal(grid.basis.shape)
        nl = make_nonlinearity("zero")
        got = solve_forward_nonlinear(grid, make_schedule(grid, {}), nl, y0)
        want = solve_forward(grid, make_schedule(grid, {}), y0)
        assert np.array_equal(got.stateT, want.stateT)

    @staticmethod
    def _stiff_2d():
        # dt*a0/2 = 5 with an x-dependent damping: the 2D GMRES midpoint
        # solve, preconditioned with the mean damping
        grid = build_grid(2, 2.0, 12, 1.0, 40)
        y0 = np.random.default_rng(7).standard_normal(grid.basis.shape)
        a0 = CoefficientField.from_callable(
            "a0", lambda x, y, t: 400.0 * (1 + 0.1 * np.sin(np.pi * x)),
            440.0)
        return grid, make_schedule(grid, {"a0": a0}), y0

    def test_stiff_coefficient_converges(self, monkeypatch):
        grid, sched, y0 = self._stiff_2d()
        basis = grid.basis
        # the mean-damping preconditioner needs at most 8 Krylov vectors a
        # step here; the bilaplacian part alone would need 16
        monkeypatch.setattr(pde_engine, "INNER_CAP", 10)
        traj = solve_forward(grid, sched, y0)
        # dense physical-space CN steps on the flattened grid as the oracle
        n = y0.size
        eye = np.eye(n)
        bilap = basis.bilap(eye.reshape((n,) + basis.shape)).reshape(n, n).T
        x = np.broadcast_to(basis.mesh()[0], basis.shape).ravel()
        a_mat = bilap + np.diag(400.0 * (1 + 0.1 * np.sin(np.pi * x)))
        c = grid.dt / 2
        state = y0.ravel()
        for _ in range(grid.n_steps):
            state = np.linalg.solve(eye + c * a_mat, state - c * a_mat @ state)
        got = traj.stateT.ravel()
        assert np.linalg.norm(got - state) <= 1e-10 * np.linalg.norm(state)
        assert basis.norm(traj.stateT) < basis.norm(y0)

    def test_stiff_coefficient_diverges_loudly(self, monkeypatch):
        # one Krylov vector cannot resolve the damping's fluctuation; the
        # zero row has a zero right-hand side and is solved without one
        grid, sched, y0 = self._stiff_2d()
        monkeypatch.setattr(pde_engine, "INNER_CAP", 1)
        with pytest.raises(EngineError) as exc:
            solve_forward(grid, sched, np.array([np.zeros_like(y0), y0]))
        err = exc.value
        assert err.code == "inner-solve-divergence"
        assert err.context["step"] == 0
        assert err.context["row"] == 1
        assert len(err.context["residuals"]) == 1
        assert err.context["residuals"][0] > pde_engine.INNER_TOL
        assert "step 0, row 1" in str(err)


class TestDiagonalPath:
    """Uniform a0, a1 and diagonal b march as an exact per-mode recurrence."""

    @staticmethod
    def _grid(dim):
        return build_grid(1, 2.0, 32, 0.5, 40) if dim == 1 else \
            build_grid(2, 2.0, 12, 0.5, 24)

    @staticmethod
    def _smooth(grid, rng):
        # decaying mode content, so the paths' differences stay at rounding
        basis = grid.basis
        decay = 1.0 / (1.0 + basis.lap_modes) ** 2
        return basis.from_modes(decay * rng.standard_normal(basis.shape))

    @staticmethod
    def _coefficients(dim, materialized):
        values = {"a0": np.array(0.7), "a1": np.array(0.3),
                  "b": np.diag([-0.2, 0.15][:dim])}
        if not materialized:
            return {role: CoefficientField.constant(role, v, dim)
                    for role, v in values.items()}
        out = {}
        for role, v in values.items():
            def fn(*mesh_t, v=v):
                # a full array of the same values, not a broadcast
                shape = np.broadcast(*mesh_t[:-1]).shape
                return v.reshape(v.shape + (1,) * dim) * np.ones(shape)
            out[role] = CoefficientField.from_callable(
                role, fn, float(np.sqrt(np.sum(v ** 2))))
        return out

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("backward", [False, True])
    def test_agrees_with_iterative_path(self, monkeypatch, dim, backward):
        grid = self._grid(dim)
        rng = np.random.default_rng(20 + dim)
        start = self._smooth(grid, rng)
        source = np.array([self._smooth(grid, rng) for _ in grid.times])
        march = solve_backward if backward else solve_forward
        got = march(grid, make_schedule(grid, self._coefficients(dim, False)),
                    start, source)
        # the same node solved as if it were not diagonal
        monkeypatch.setattr(pde_engine, "_scan_diagonal", lambda *args: None)
        sched = make_schedule(grid, self._coefficients(dim, True))
        want = march(grid, sched, start, source)
        assert not isinstance(sched.factors[1], list)
        for a, b in ((got.fields, want.fields), (got.state0, want.state0),
                     (got.stateT, want.stateT)):
            assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_duality_residual(self, dim):
        grid = self._grid(dim)
        rng = np.random.default_rng(30 + dim)
        sched = make_schedule(grid, self._coefficients(dim, False))
        obs = (rng.uniform(size=grid.shape) > 0.5).astype(float)
        g = rng.standard_normal((grid.n_steps,) + grid.shape)
        y = solve_forward(grid, sched, np.zeros(grid.shape), g)
        phi = solve_forward(grid, sched, rng.standard_normal(grid.shape))
        psi = solve_backward(grid, sched, np.zeros(grid.shape),
                             obs * phi.fields)
        res = duality_residual(y, psi, None, g, phi, obs)
        assert res <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("backward", [False, True])
    def test_list_schedule_is_bitwise_static(self, dim, backward):
        grid = self._grid(dim)
        rng = np.random.default_rng(40 + dim)
        start = rng.standard_normal(grid.shape)
        source = rng.standard_normal((grid.n_steps,) + grid.shape)
        march = solve_backward if backward else solve_forward
        static = make_schedule(grid, self._coefficients(dim, False))
        # distinct per-step copies of the shared node
        copies = [dataclasses.replace(static.nodes[0]) for _ in grid.times]
        for a, b in ((make_schedule(grid, {}),
                      Schedule([NodeCoefficients()] * grid.n_steps)),
                     (static, Schedule(copies))):
            ta = march(grid, a, start, source)
            tb = march(grid, b, start, source)
            assert np.array_equal(ta.fields, tb.fields)
            assert np.array_equal(ta.state0, tb.state0)
            assert np.array_equal(ta.stateT, tb.stateT)

    def test_fine_grid_matches_extended_precision(self):
        # at 256 cells c*lambda_max ~ 4e7, where the physical-space
        # right-hand side u - c*bilap(u) cancels about eight digits
        grid = build_grid(1, 2.0, 256, 1.0, 800)
        basis = grid.basis
        y0 = np.random.default_rng(11).standard_normal(basis.shape)
        traj = solve_forward(grid, make_schedule(grid, {}), y0)
        c = np.longdouble(grid.dt) / 2
        lam = basis.bilap_modes.astype(np.longdouble)
        r = (1 - c * lam) / (1 + c * lam)
        want = basis.to_modes(y0).astype(np.longdouble) * r ** grid.n_steps
        err = np.linalg.norm((basis.to_modes(traj.stateT) - want).astype(float))
        assert err <= 1e-12 * np.linalg.norm(want.astype(float))

    def test_stiff_damping_is_stable(self):
        # a Richardson inner solve diverges once c*a0 >> 1; the mode
        # recurrence is exact at any stiffness
        grid = build_grid(1, 2.0, 32, 1.0, 40)
        k, a0 = 1, 1000.0
        coeffs = {"a0": CoefficientField.constant("a0", a0)}
        traj = solve_forward(grid, make_schedule(grid, coeffs), _mode(grid, k))
        g = _rational_march((np.pi / 2.0) ** 4 + a0, grid.dt, grid.n_steps)
        assert grid.basis.to_modes(traj.stateT)[k - 1] == pytest.approx(
            g[-1], rel=1e-12)

    @pytest.mark.parametrize("dim, mode", [(1, (1,)), (2, (1, 1))])
    def test_nonpositive_denominator_names_mode(self, dim, mode):
        grid = self._grid(dim)
        coeffs = {"a0": CoefficientField.constant("a0", -1000.0, dim)}
        with pytest.raises(EngineError) as exc:
            solve_forward(grid, make_schedule(grid, coeffs), np.ones(grid.shape))
        assert exc.value.code == "implicit-denominator-nonpositive"
        assert exc.value.context["mode"] == mode
        assert exc.value.context["step"] == 0


class TestModeLUPath:
    """1D non-diagonal marches solve each step with cached mode-space LU."""

    @staticmethod
    def _coefficients():
        # every role x-dependent, a0 and b0 also time-dependent
        return {
            "a0": CoefficientField.from_callable(
                "a0", lambda x, t: 2.0 + np.sin(np.pi * x) * np.cos(t), 3.0),
            "b0": CoefficientField.from_callable(
                "b0", lambda x, t: (0.5 * np.cos(np.pi * x / 2) * (1 + t))[None],
                1.0),
            "b": CoefficientField.from_callable(
                "b", lambda x, t: (0.2 * np.sin(np.pi * x / 2))[None, None],
                0.2),
            "a1": CoefficientField.from_callable(
                "a1", lambda x, t: 0.3 * x * (2.0 - x), 0.3),
        }

    @pytest.mark.parametrize("backward", [False, True])
    def test_agrees_with_gmres(self, monkeypatch, backward):
        grid = build_grid(1, 2.0, 64, 1.0, 200)
        rng = np.random.default_rng(50)
        smooth = TestDiagonalPath._smooth
        start = smooth(grid, rng)
        source = np.array([smooth(grid, rng) for _ in grid.times])
        march = solve_backward if backward else solve_forward
        sched = make_schedule(grid, self._coefficients())
        got = march(grid, sched, start, source)
        assert isinstance(sched.factors[1], pde_engine._ModeInverse)
        monkeypatch.setattr(pde_engine, "INVERSE_STACK_CAP_BYTES", 0)
        want = march(grid, make_schedule(grid, self._coefficients()), start,
                     source)
        for a, b in ((got.fields, want.fields), (got.state0, want.state0),
                     (got.stateT, want.stateT)):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_duality_residual(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        rng = np.random.default_rng(51)
        sched = make_schedule(grid, self._coefficients())
        obs = (rng.uniform(size=grid.shape) > 0.5).astype(float)
        g = rng.standard_normal((grid.n_steps,) + grid.shape)
        y = solve_forward(grid, sched, np.zeros(grid.shape), g)
        phi = solve_forward(grid, sched, rng.standard_normal(grid.shape))
        psi = solve_backward(grid, sched, np.zeros(grid.shape),
                             obs * phi.fields)
        assert isinstance(sched.factors[1], pde_engine._ModeInverse)
        res = duality_residual(y, psi, None, g, phi, obs)
        assert res <= 1e-13

    @staticmethod
    def _stiff(grid):
        # dt*a0/2 = 5: a Richardson iteration on the lower-order block
        # diverges on this damping
        a0 = CoefficientField.from_callable(
            "a0", lambda x, t: 400.0 * (1 + 0.1 * np.sin(np.pi * x)), 440.0)
        return make_schedule(grid, {"a0": a0})

    def test_stiff_x_dependent_damping_converges(self):
        grid = build_grid(1, 2.0, 32, 1.0, 40)
        basis = grid.basis
        y0 = np.random.default_rng(7).standard_normal(basis.shape)
        traj = solve_forward(grid, self._stiff(grid), y0)
        # dense physical-space CN steps as the oracle
        n = basis.shape[0]
        eye = np.eye(n)
        bilap = basis.from_modes(eye) @ (basis.bilap_modes[:, None]
                                         * basis.to_modes(eye))
        a_mat = bilap + np.diag(
            400.0 * (1 + 0.1 * np.sin(np.pi * basis.nodes[0])))
        c = grid.dt / 2
        state = y0
        for _ in range(grid.n_steps):
            state = np.linalg.solve(eye + c * a_mat, state - c * a_mat @ state)
        assert np.linalg.norm(traj.stateT - state) <= 1e-10 * np.linalg.norm(state)
        assert basis.norm(traj.stateT) < basis.norm(y0)

    def test_cap_falls_back_to_gmres(self, monkeypatch):
        grid = build_grid(1, 2.0, 32, 1.0, 40)
        y0 = np.random.default_rng(7).standard_normal(grid.basis.shape)
        # one factor of a time-constant node is 31*31*8 bytes
        monkeypatch.setattr(pde_engine, "INVERSE_STACK_CAP_BYTES",
                            31 * 31 * 8 - 1)
        sched = self._stiff(grid)
        got = solve_forward(grid, sched, y0)
        assert sched.factors[1] is None
        monkeypatch.setattr(pde_engine, "INVERSE_STACK_CAP_BYTES", 31 * 31 * 8)
        # the GMRES decision is cached too: drop it to decide again
        sched.release_factors()
        want = solve_forward(grid, sched, y0)
        assert [f.shape for f in sched.factors[1].inv] == [(31, 31)]
        assert np.linalg.norm(got.stateT - want.stateT) \
            <= 1e-12 * np.linalg.norm(want.stateT)

    def test_fine_grid_gmres_matches_lu(self, monkeypatch):
        # 256 cells, 800 steps: at c*lambda_max ~ 4e7 a physical-space
        # right-hand side would cancel about eight digits; the mode-space
        # GMRES solve keeps the LU march's digits
        grid = build_grid(1, 2.0, 256, 1.0, 800)
        a0 = CoefficientField.from_callable(
            "a0", lambda x, t: 2.0 + np.sin(np.pi * x), 3.0)
        y0 = np.random.default_rng(12).standard_normal(grid.shape)
        want = solve_forward(grid, make_schedule(grid, {"a0": a0}), y0)
        monkeypatch.setattr(pde_engine, "INVERSE_STACK_CAP_BYTES", 0)
        sched = make_schedule(grid, {"a0": a0})
        got = solve_forward(grid, sched, y0)
        assert sched.factors[1] is None
        assert np.linalg.norm(got.stateT - want.stateT) \
            <= 1e-12 * np.linalg.norm(want.stateT)

    def test_factors_reused_and_released(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        rng = np.random.default_rng(52)
        sched = make_schedule(grid, self._coefficients())
        start = rng.standard_normal(grid.shape)
        first = solve_forward(grid, sched, start)
        factors = sched.factors[1]
        # time-dependent a0 and b0: one factorization per step
        assert len(factors.inv) == grid.n_steps
        solve_backward(grid, sched, start)
        assert sched.factors[1] is factors
        sched.release_factors()
        assert sched.factors is None
        assert np.array_equal(solve_forward(grid, sched, start).stateT,
                              first.stateT)

    def test_nonfinite_pivot_names_step(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        a0 = CoefficientField.from_callable(
            "a0", lambda x, t: np.where(t > 0.25, np.nan, 1.0) + 0.1 * x, 1.3)
        with pytest.raises(EngineError) as exc:
            solve_forward(grid, make_schedule(grid, {"a0": a0}),
                          np.ones(grid.shape))
        assert exc.value.code == "implicit-step-singular"
        first_bad = int(np.argmax(grid.times > 0.25))
        assert exc.value.context["step"] == first_bad
        assert f"step {first_bad}" in str(exc.value)

    def test_zero_pivot_names_step(self, monkeypatch):
        # an exactly singular step matrix (a zero row) in the middle of a
        # stack: numpy refuses the stack, the error names its step
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        real = pde_engine._invert

        def singular_at_third(mats, *args):
            mats[2, 4] = 0.0
            return real(mats, *args)

        monkeypatch.setattr(pde_engine, "_invert", singular_at_third)
        with pytest.raises(EngineError) as exc:
            solve_forward(grid, make_schedule(grid, self._coefficients()),
                          np.ones(grid.shape))
        assert exc.value.code == "implicit-step-singular"
        assert exc.value.context["step"] == 2


def _node_stacks(monkeypatch, grid, coefficients):
    """The node matrix stacks a forward march hands to ``_invert``."""
    stacks = []
    real = pde_engine._invert

    def captured(mats, *args):
        stacks.append(mats.copy())
        return real(mats, *args)

    monkeypatch.setattr(pde_engine, "_invert", captured)
    solve_forward(grid, make_schedule(grid, coefficients), np.ones(grid.shape))
    monkeypatch.setattr(pde_engine, "_invert", real)
    return np.concatenate(stacks)


def _column_ratio(mats):
    """Per node, the largest off-diagonal column sum over its diagonal."""
    absm = np.abs(mats)
    diag = np.diagonal(absm, axis1=1, axis2=2)
    return ((absm.sum(axis=1) - diag) / diag).max(axis=1)


def _terms(rho):
    """The least K >= 2 with rho^(2^K) (1 + rho) / (1 - rho) <= 2^-53."""
    k = 2
    while rho ** 2**k * (1 + rho) / (1 - rho) > 2.0**-53:
        k += 1
    return k


class TestNeumannInverse:
    """Node matrices with rho <= 1/2 are inverted by a Neumann product on
    their own diagonal, every other one by LAPACK."""

    ROLES = {
        "a0": lambda: {"a0": CoefficientField.from_callable(
            "a0", lambda x, t: 2.0 + np.sin(np.pi * x) * np.cos(t), 3.0)},
        "b0": lambda: {"b0": CoefficientField.from_callable(
            "b0", lambda x, t: (0.5 * np.cos(np.pi * x / 2) * (1 + t))[None],
            1.0)},
        "a1": lambda: {"a1": CoefficientField.from_callable(
            "a1", lambda x, t: 0.3 * x * (2.0 - x) * (1 + t), 0.6)},
        # tanh'(z) at a small state z, as a Picard linearization adds it
        "tanh": lambda: {"a0": CoefficientField.from_callable(
            "a0", lambda x, t: 1.0 - np.tanh(
                0.05 * np.sin(np.pi * x / 2) * (1 + t)) ** 2, 1.0)},
    }

    @staticmethod
    def _advected():
        # b0 = 100 t cos(pi x / 2): the later nodes' rho exceeds 1/2, and
        # advection keeps every step matrix nonsingular
        return {"b0": CoefficientField.from_callable(
            "b0", lambda x, t: (100.0 * t * np.cos(np.pi * x / 2))[None],
            100.0)}

    # n = 63 (odd), 32 (even) and 16
    @pytest.mark.parametrize("cells", [64, 33, 17])
    @pytest.mark.parametrize("role", ["a0", "b0", "a1"])
    def test_matches_lapack(self, monkeypatch, cells, role):
        grid = build_grid(1, 2.0, cells, 1.0, 40)
        mats = _node_stacks(monkeypatch, grid, self.ROLES[role]())
        assert mats.shape == (grid.n_steps, cells - 1, cells - 1)
        assert np.all(_column_ratio(mats) <= 0.5)
        want = 2.0 * np.linalg.inv(mats)
        paths = count_inverse_paths(monkeypatch)
        got = pde_engine._invert(mats.copy())
        assert sum(paths["neumann"].values()) == grid.n_steps
        assert paths["lapack"] == 0
        err = np.linalg.norm(got - want, axis=(1, 2))
        assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))

    @pytest.mark.parametrize("role,terms", [("tanh", 2), ("b0", 4)])
    def test_terms_follow_own_rho(self, monkeypatch, role, terms):
        grid = build_grid(1, 2.0, 64, 1.0, 40)
        mats = _node_stacks(monkeypatch, grid, self.ROLES[role]())
        want = [_terms(rho) for rho in _column_ratio(mats)]
        assert set(want) == {terms}
        seen = []
        product = pde_engine._neumann_inverse

        def recorded(m, k, *work):
            seen.extend(k.tolist())
            return product(m, k, *work)

        monkeypatch.setattr(pde_engine, "_neumann_inverse", recorded)
        pde_engine._invert(mats.copy())
        assert seen == want

    def test_nondominant_node_takes_lapack(self, monkeypatch):
        grid = build_grid(1, 2.0, 32, 1.0, 40)
        mats = _node_stacks(monkeypatch, grid, self._advected())
        eligible = int(np.sum(_column_ratio(mats) <= 0.5))
        assert 0 < eligible < grid.n_steps
        y0 = np.random.default_rng(7).standard_normal(grid.shape)
        paths = count_inverse_paths(monkeypatch)
        sched = make_schedule(grid, self._advected())
        got = solve_forward(grid, sched, y0)
        assert isinstance(sched.factors[1], pde_engine._ModeInverse)
        assert sum(paths["neumann"].values()) == eligible
        assert paths["lapack"] == grid.n_steps - eligible
        monkeypatch.setattr(pde_engine, "INVERSE_STACK_CAP_BYTES", 0)
        want = solve_forward(grid, make_schedule(grid, self._advected()), y0)
        assert np.linalg.norm(got.stateT - want.stateT) \
            <= 1e-12 * np.linalg.norm(want.stateT)

    def test_node_inverse_ignores_chunk_mates(self, monkeypatch):
        grid = build_grid(1, 2.0, 32, 1.0, 40)
        mats = _node_stacks(monkeypatch, grid, self._advected())
        eligible = _column_ratio(mats) <= 0.5
        mixed = pde_engine._invert(mats.copy())
        alone = pde_engine._invert(mats[eligible])
        assert np.array_equal(mixed[eligible], alone)
        j = int(np.flatnonzero(eligible)[-1])
        assert np.array_equal(mixed[j], pde_engine._invert(mats[j:j + 1])[0])
        # nodes of K = 2 and K = 4 in one stack
        small, large = (_node_stacks(monkeypatch, grid, self.ROLES[role]())
                        for role in ("tanh", "b0"))
        both = pde_engine._invert(np.concatenate([small, large]))
        assert np.array_equal(both[:len(small)],
                              pde_engine._invert(small.copy()))
        assert np.array_equal(both[len(small):],
                              pde_engine._invert(large.copy()))

    @pytest.mark.parametrize("case", ["a0", "a0-b0-a1", "advected"])
    def test_stack_ignores_chunk_size(self, monkeypatch, case):
        # 41 nodes: chunks of 5 and 12 end in a short one; the advected
        # schedule mixes Neumann and LAPACK nodes in its chunks
        grid = build_grid(1, 2.0, 32, 1.0, 41)
        coeffs = self._advected() if case == "advected" else {
            role: fld for part in case.split("-")
            for role, fld in self.ROLES[part]().items()}
        n = grid.shape[0]
        paths = count_inverse_paths(monkeypatch)
        stacks = []
        for nodes in (1, 5, 12, grid.n_steps):
            monkeypatch.setattr(pde_engine, "INVERSE_CHUNK_BYTES",
                                nodes * n * n * 8)
            stacks.append(pde_engine._mode_inverse(
                grid.basis, make_schedule(grid, coeffs), grid.n_steps,
                grid.dt).inv)
        assert stacks[0].shape == (grid.n_steps, n, n)
        assert all(np.array_equal(s, stacks[0]) for s in stacks[1:])
        assert (paths["lapack"] > 0) is (case == "advected")

    @pytest.mark.parametrize("role", ["tanh", "advected"])
    def test_workspace_keeps_bits(self, monkeypatch, role):
        # a longer workspace of NaN leaves the inverses' bits alone
        grid = build_grid(1, 2.0, 32, 1.0, 40)
        coeffs = self._advected() if role == "advected" else self.ROLES[role]()
        mats = _node_stacks(monkeypatch, grid, coeffs)
        work = np.full((2, len(mats) + 3) + mats.shape[1:], np.nan)
        assert np.array_equal(pde_engine._invert(mats.copy(), work),
                              pde_engine._invert(mats.copy()))


class TestMakeSchedule:
    """One builder: coefficient fields at the midpoint nodes plus additions."""

    def test_time_constant_schedule_factors_once(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        coeffs = {"a0": CoefficientField.constant("a0", 0.7),
                  "b0": CoefficientField.constant("b0", [0.4])}
        sched = make_schedule(grid, coeffs)
        assert all(sched.nodes[j] is sched.nodes[0] for j in range(grid.n_steps))
        solve_forward(grid, sched, np.ones(grid.shape))
        assert len(sched.factors[1].inv) == 1

    @pytest.mark.parametrize("dim", [1, 2])
    def test_additions_add_to_every_node(self, dim):
        grid = TestDiagonalPath._grid(dim)
        rng = np.random.default_rng(60 + dim)
        coeffs = {
            "a0": CoefficientField.from_callable(
                "a0", lambda *xt: 1.0 + xt[0] * xt[-1], 3.0),
            "b": CoefficientField.constant("b", 0.2 * np.eye(dim), dim),
            "a1": CoefficientField.constant("a1", 0.3, dim),
        }
        lead = (grid.n_steps,)
        add_a0 = rng.standard_normal(lead + grid.shape)
        add_b0 = rng.standard_normal(lead + (dim,) + grid.shape)
        add_b = rng.standard_normal(lead + (dim, dim) + grid.shape)
        base = make_schedule(grid, coeffs)
        sched = make_schedule(grid, coeffs, add_a0, add_b0, add_b)
        for j in range(grid.n_steps):
            want, got = base.nodes[j], sched.nodes[j]
            assert np.array_equal(got.a0, want.a0 + add_a0[j])
            assert np.array_equal(got.b0, add_b0[j])
            assert np.array_equal(got.b, want.b + add_b[j])
            assert np.array_equal(got.a1, want.a1)

    def test_zero_addition_stays_diagonal(self):
        grid = TestDiagonalPath._grid(1)
        coeffs = TestDiagonalPath._coefficients(1, False)
        zero = np.zeros((grid.n_steps,) + grid.shape)
        sched = make_schedule(grid, coeffs, add_a0=zero)
        assert all(sched.nodes[j] is sched.nodes[0] for j in range(grid.n_steps))
        y0 = np.random.default_rng(62).standard_normal(grid.shape)
        got = solve_forward(grid, sched, y0)
        assert isinstance(sched.factors[1], list)  # the diagonal mode factors
        want = solve_forward(grid, make_schedule(grid, coeffs), y0)
        assert np.array_equal(got.stateT, want.stateT)

    @staticmethod
    def _marches(grid, a, b, rng):
        """Forward and backward marches of schedules ``a`` and ``b``."""
        start = rng.standard_normal(grid.shape)
        source = rng.standard_normal((grid.n_steps,) + grid.shape)
        for march in (solve_forward, solve_backward):
            yield march(grid, a, start, source), march(grid, b, start, source)

    def test_time_constant_addition_shares_one_node(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        coeffs = {"a0": CoefficientField.constant("a0", 0.7),
                  "b0": CoefficientField.constant("b0", [0.4])}
        rng = np.random.default_rng(63)
        row = rng.standard_normal(grid.shape)
        sched = make_schedule(grid, coeffs,
                              add_a0=np.tile(row, (grid.n_steps, 1)))
        assert all(sched.nodes[j] is sched.nodes[0] for j in range(grid.n_steps))
        # distinct per-step copies of the shared node: one factor per step
        copies = Schedule([dataclasses.replace(sched.nodes[0])
                           for _ in grid.times])
        for got, want in self._marches(grid, sched, copies, rng):
            for a, b in ((got.fields, want.fields), (got.state0, want.state0),
                         (got.stateT, want.stateT)):
                assert np.array_equal(a, b)
        assert len(sched.factors[1].inv) == 1
        assert len(copies.factors[1].inv) == grid.n_steps

    def test_constant_addition_decides_diagonal(self):
        grid = TestDiagonalPath._grid(1)
        coeffs = TestDiagonalPath._coefficients(1, False)
        sched = make_schedule(grid, coeffs,
                              add_a0=np.full((grid.n_steps,) + grid.shape, 0.25))
        # per-step materialized copies are judged by their values too
        node = sched.nodes[0]
        copies = Schedule([dataclasses.replace(node, a0=np.array(node.a0))
                           for _ in grid.times])
        rng = np.random.default_rng(64)
        for got, want in self._marches(grid, sched, copies, rng):
            for a, b in ((got.fields, want.fields), (got.state0, want.state0),
                         (got.stateT, want.stateT)):
                assert np.array_equal(a, b)
        assert isinstance(sched.factors[1], list)
        assert isinstance(copies.factors[1], list)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_uniform_callable_marches_as_constant(self, dim):
        # callables that return full arrays of one value per component
        grid = TestDiagonalPath._grid(dim)
        sched = make_schedule(grid, TestDiagonalPath._coefficients(dim, True))
        assert all(node is sched.nodes[0] for node in sched.nodes)
        const = make_schedule(grid, TestDiagonalPath._coefficients(dim, False))
        rng = np.random.default_rng(65)
        for got, want in self._marches(grid, sched, const, rng):
            for a, b in ((got.fields, want.fields), (got.state0, want.state0),
                         (got.stateT, want.stateT)):
                assert np.array_equal(a, b)
        assert isinstance(sched.factors[1], list)
        assert len({id(f) for f in sched.factors[1]}) == 1

    def test_time_independent_callable_shares_one_node(self):
        grid = build_grid(1, 2.0, 32, 0.5, 40)
        a0 = CoefficientField.from_callable(
            "a0", lambda x, t: 1.0 + 0.5 * np.sin(np.pi * x), 1.5)
        sched = make_schedule(grid, {"a0": a0})
        assert all(node is sched.nodes[0] for node in sched.nodes)
        node_a0 = sched.nodes[0].a0
        assert np.array_equal(node_a0, a0.eval(grid.basis, 0.0))
        # the node holds one row, not a view of the (Nt, ...) stack
        owner = node_a0 if node_a0.base is None else node_a0.base
        assert owner.nbytes == node_a0.nbytes

    def test_time_dependent_callable_gets_a_node_per_step(self):
        grid = build_grid(1, 2.0, 16, 0.5, 24)
        a0 = CoefficientField.from_callable(
            "a0", lambda x, t: 1.0 + 10.0 * t + 0.0 * x, 11.0)
        sched = make_schedule(grid, {"a0": a0})
        assert len({id(node) for node in sched.nodes}) == grid.n_steps
        for node, t in zip(sched.nodes, grid.times):
            assert np.all(node.a0 == 1.0 + 10.0 * t)
        solve_forward(grid, sched, np.ones(grid.shape))
        # uniform at each node: the diagonal solve, one factor per step
        factors = sched.factors[1]
        for j, t in enumerate(grid.times):
            assert np.array_equal(factors[j], pde_engine._mode_factor(
                grid.basis, grid.dt, (1.0 + 10.0 * t, 0.0, 0.0), j))

    def test_one_differing_row_keeps_a_node_per_step(self):
        grid = TestDiagonalPath._grid(1)
        add = np.full((grid.n_steps,) + grid.shape, 0.25)
        add[5, 3] = 0.5
        sched = make_schedule(grid, TestDiagonalPath._coefficients(1, False),
                              add_a0=add)
        assert len({id(sched.nodes[j]) for j in range(grid.n_steps)}) \
            == grid.n_steps


class TestLowerApply:
    def test_second_derivatives_taken_once(self, monkeypatch):
        # b and a1 share the same-axis derivatives: 2 dxx calls, not 4
        grid = build_grid(2, 2.0, 12, 0.5, 24)
        basis = grid.basis
        rng = np.random.default_rng(70)
        nc = NodeCoefficients(b=rng.standard_normal((2, 2) + grid.shape),
                              a1=rng.standard_normal(grid.shape))
        u = rng.standard_normal(grid.shape)
        want = np.zeros_like(u)
        for i in range(2):
            for j in range(2):
                want += nc.b[i, j] * basis.d2(u, i, j)
        want += nc.a1 * (basis.d2(u, 0, 0) + basis.d2(u, 1, 1))
        calls = []
        dxx = SineBasis.dxx
        monkeypatch.setattr(SineBasis, "dxx", lambda self, v, axis=0: (
            calls.append(axis), dxx(self, v, axis))[1])
        got = pde_engine._lower_apply(basis, nc, u)
        assert sorted(calls) == [0, 1]
        assert np.array_equal(got, want)


class TestFactorCache:
    """One cache per schedule: the step solver its first march chose."""

    @staticmethod
    def _case(case):
        """(grid, coefficients, type of the cached decision)."""
        dim = 2 if case.endswith("2d") else 1
        grid = build_grid(dim, 2.0, 16 if dim == 1 else 8, 0.5, 16)
        if case.startswith("diagonal"):
            a0 = CoefficientField.constant("a0", 0.5, dim)
            return grid, {"a0": a0}, list
        if dim == 2:
            # a first-order term: not diagonal in the sine basis
            return grid, {"b0": CoefficientField.constant(
                "b0", np.array([0.5, 0.0]), 2)}, type(None)
        a0 = CoefficientField.from_callable(
            "a0", lambda x, t: 1.0 + 0.5 * np.sin(np.pi * x), 1.5)
        return grid, {"a0": a0}, \
            pde_engine._ModeInverse if case == "lu-1d" else type(None)

    @pytest.mark.parametrize("case", ["diagonal-1d", "diagonal-2d", "lu-1d",
                                      "gmres-1d-over-cap", "gmres-2d"])
    def test_second_march_reuses_the_decision(self, monkeypatch, case):
        grid, coeffs, kind = self._case(case)
        if case == "gmres-1d-over-cap":
            monkeypatch.setattr(pde_engine, "INVERSE_STACK_CAP_BYTES", 0)
        sched = make_schedule(grid, coeffs)
        start = np.random.default_rng(3).standard_normal(grid.shape)
        first = solve_forward(grid, sched, start)
        key, decision = sched.factors
        assert key == (grid.dt, grid.n_steps, grid.basis.extents,
                       grid.basis.n_cells)
        assert type(decision) is kind
        calls = []
        for name in ("_scan_diagonal", "_mode_inverse"):
            monkeypatch.setattr(pde_engine, name,
                                lambda *args, _name=name: calls.append(_name))
        again = solve_forward(grid, sched, start)
        solve_backward(grid, sched, start)
        assert calls == []
        assert sched.factors[1] is decision
        assert np.array_equal(again.stateT, first.stateT)

    def test_new_step_size_decides_again(self):
        grid, coeffs, _ = self._case("diagonal-1d")
        sched = make_schedule(grid, coeffs)
        solve_forward(grid, sched, np.ones(grid.shape))
        before = sched.factors
        longer = build_grid(1, 2.0, 16, 1.0, 16)
        solve_forward(longer, sched, np.ones(grid.shape))
        assert sched.factors[0] == (longer.dt,) + before[0][1:]
        assert not np.array_equal(sched.factors[1][0][0], before[1][0][0])


class TestTrajectory:
    def _traj(self):
        grid = build_grid(1, 2.0, 16, 0.5, 24)
        y0 = np.random.default_rng(8).standard_normal(grid.basis.shape)
        return grid, solve_forward(grid, make_schedule(grid, {}), y0)

    def test_norms_match_direct_sums(self):
        grid, traj = self._traj()
        b = grid.basis
        h2 = np.sqrt(grid.dt * sum(b.h2_norm_sq(f) for f in traj.fields))
        assert traj.norm_l2h2() == pytest.approx(h2, rel=1e-13)

    def test_norm_of_mode_record_converts_nothing(self, monkeypatch):
        # a linear march without a hook holds its record in sine
        # coefficients; the norm sums them and leaves the record there
        grid, traj = self._traj()
        calls = count_transforms(monkeypatch)
        norm = traj.norm_l2h2()
        assert not calls
        b = grid.basis
        h2 = np.sqrt(grid.dt * sum(b.h2_norm_sq(f) for f in traj.fields))
        assert norm == pytest.approx(h2, rel=1e-13)

    def test_fields_record_midpoint_averages(self):
        # fields[j] averages the integer-node states u_j and u_{j+1}, so
        # u_{j+1} = 2 fields[j] - u_j carries state0 to stateT
        _, traj = self._traj()
        u = traj.state0
        for f in traj.fields:
            u = 2.0 * f - u
        assert np.allclose(u, traj.stateT, rtol=0, atol=1e-12)

