"""Cascade solves, the sentinel, and its first-order sensitivity.

With control and observation masks covering the whole interior the
cascade is mode-diagonal, so a single-mode control admits an exact
scalar oracle: forward CN recursion for y, backward recursion for q
driven by the stored midpoint averages.
"""
import inspect

import numpy as np
import pytest

from insens4 import cascade_sentinel, cli, pde_engine
from insens4.cascade_sentinel import (
    acting_control,
    linearized_operators,
    sentinel_sensitivity,
    solve_adjoint_pair,
    solve_cascade,
)
from insens4.config import apply_quick, default_config, problem_from_config
from insens4.errors import SetupError
from insens4.pde_engine import (
    Trajectory,
    duality_residual,
    solve_backward,
    solve_forward,
)
from insens4.problem_setup import (
    CoefficientField,
    ProblemConfig,
    build_grid,
    build_mask,
    validate_problem,
)
from conftest import unit_smooth
from oracles import sentinel


def _full_mask_problem(a0=0.6):
    grid = build_grid(1, 2.0, 24, 1.0, 30)
    return validate_problem(ProblemConfig(
        grid=grid,
        omega=build_mask(grid, [(0.0, 2.0)], "omega"),
        obs=build_mask(grid, [(0.0, 2.0)], "obs"),
        omega0=build_mask(grid, [(0.9, 1.1)], "omega0"),
        a0=CoefficientField.constant("a0", a0),
    ))


def _partial_problem(rng, dim=1):
    if dim == 1:
        grid = build_grid(1, 2.0, 24, 0.5, 24)
        om, ob, om0 = [(0.5, 1.3)], [(0.9, 1.7)], [(1.0, 1.2)]
    else:
        grid = build_grid(2, 2.0, 12, 0.5, 16)
        om = [((0.3, 1.5), (0.3, 1.5))]
        ob = [((0.5, 1.7), (0.5, 1.7))]
        om0 = [((0.8, 1.2), (0.8, 1.2))]
    d = grid.dim
    force = rng.standard_normal((grid.n_steps,) + grid.shape)
    force[grid.times <= 0.15] = 0.0
    return validate_problem(ProblemConfig(
        grid=grid,
        omega=build_mask(grid, om, "omega"),
        obs=build_mask(grid, ob, "obs"),
        omega0=build_mask(grid, om0, "omega0"),
        a0=CoefficientField.constant("a0", rng.uniform(-1, 1), dim=d),
        b0=CoefficientField.constant("b0", rng.uniform(-1, 1, d), dim=d),
        b=CoefficientField.constant("b", rng.uniform(-0.5, 0.5, (d, d)), dim=d),
        a1=CoefficientField.constant("a1", rng.uniform(-1, 1), dim=d),
        force=force, force_onset=0.15,
    ))


# (omega boxes, obs boxes, omega0 box, smooth) per mask kind, 1D boxes on
# [0, 2]; a 2D box takes the same interval on both axes.  "union" masks
# are two boxes whose bounding box holds zeros between them, "boundary"
# boxes reach the domain's edge
MASK_CASES = {
    "union": ([(0.1, 0.7), (1.1, 1.8)], [(0.3, 0.9), (1.0, 1.9)], (1.3, 1.6),
              False),
    "smooth": ([(0.5, 1.5)], [(0.8, 1.8)], (1.0, 1.3), True),
    "boundary": ([(0.0, 1.4)], [(0.6, 2.0)], (1.0, 1.2), False),
}


def _masked_problem(rng, case, dim, lower):
    """A problem with the masks of ``case``; ``lower`` adds b0, which
    takes the 1D inverse path and, in 2D, GMRES."""
    om, ob, om0, smooth = MASK_CASES[case]
    grid = build_grid(1, 2.0, 24, 0.5, 20) if dim == 1 else \
        build_grid(2, 2.0, 12, 0.5, 16)
    if dim == 2:
        om, ob, om0 = ([(box, box) for box in boxes] for boxes in (om, ob, [om0]))
    else:
        om0 = [om0]
    coeffs = {"a0": CoefficientField.constant("a0", 0.4, dim=dim)}
    if lower:
        coeffs["b0"] = CoefficientField.constant("b0", np.full(dim, 0.5), dim=dim)
    force = rng.standard_normal((grid.n_steps,) + grid.shape)
    force[grid.times <= 0.1] = 0.0
    return validate_problem(ProblemConfig(
        grid=grid,
        omega=build_mask(grid, om, "omega", smooth=smooth),
        obs=build_mask(grid, ob, "obs", smooth=smooth),
        omega0=build_mask(grid, om0, "omega0"),
        force=force, force_onset=0.1,
        **coeffs,
    ))


class TestBoxedHandOffs:
    """Every masked source read on its mask's box, against node space."""

    @pytest.mark.parametrize("case", MASK_CASES)
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("lower", [False, True], ids=["diagonal", "b0"])
    def test_matches_node_space_reference(self, rng, case, dim, lower):
        # the reference multiplies each full record by its mask and hands
        # it over as a full-grid source, which the march transforms whole
        p = _masked_problem(rng, case, dim, lower)
        grid, obs, omega = p.grid, p.obs, p.omega
        assert np.any(obs.values[obs.box] == 0.0) == (case == "union")
        sched = linearized_operators(p).state_schedule
        zero = np.zeros(grid.shape)
        phi0 = unit_smooth(p.basis, rng)
        phi = solve_forward(grid, sched, phi0)
        psi = solve_backward(grid, sched, zero, obs.values * phi.fields)
        v = omega.values * psi.fields
        pair = solve_adjoint_pair(p, phi0)
        got = [(pair.psi.fields, psi.fields), (pair.psi.state0, psi.state0),
               (acting_control(p, pair), v)]
        for force in (False, True):
            y = solve_forward(grid, sched, zero,
                              v + p.force_fields if force else v)
            q = solve_backward(grid, sched, zero, obs.values * y.fields)
            casc = solve_cascade(p, v, include_force=force)
            got += [(casc.y.fields, y.fields), (casc.y.stateT, y.stateT),
                    (casc.q.fields, q.fields), (casc.q.state0, q.state0)]
        # on the GMRES path each midpoint solve is linear only to INNER_TOL
        tol = 10 * pde_engine.INNER_TOL if dim == 2 and lower else 1e-13
        for i, (a, b) in enumerate(got):
            assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b), i


class TestCascadeOracle:
    def test_single_mode_scalar_recursion(self):
        p = _full_mask_problem(a0=0.6)
        grid = p.grid
        k = 2
        mu = (k * np.pi / 2.0) ** 4 + 0.6
        c = grid.dt * mu / 2
        rng = np.random.default_rng(11)
        amps = rng.standard_normal(grid.n_steps)
        e = np.zeros(grid.shape)
        e[k - 1] = 1.0
        mode = grid.basis.from_modes(e)
        v = amps[:, None] * mode

        sol = solve_cascade(p, v)

        g = 0.0
        ymid = []
        for j in range(grid.n_steps):
            g_next = ((1 - c) * g + grid.dt * amps[j]) / (1 + c)
            ymid.append((g + g_next) / 2)
            g = g_next
        h = 0.0
        for j in reversed(range(grid.n_steps)):
            h = ((1 - c) * h + grid.dt * ymid[j]) / (1 + c)

        got = grid.basis.to_modes(sol.q.state0)
        assert got[k - 1] == pytest.approx(h, rel=1e-12)
        others = got.copy()
        others[k - 1] = 0.0
        assert np.abs(others).max() <= 1e-14 * max(abs(h), 1.0)

    def test_linear_in_the_control(self):
        p = _full_mask_problem()
        rng = np.random.default_rng(12)
        v1 = rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        v2 = rng.standard_normal(v1.shape)
        q_sum = solve_cascade(p, v1 + v2).q.state0
        q_sep = solve_cascade(p, v1).q.state0 + solve_cascade(p, v2).q.state0
        scale = np.abs(q_sum).max()
        assert np.allclose(q_sum, q_sep, rtol=0, atol=1e-12 * max(scale, 1e-30))

    def test_homogeneous_zero(self):
        p = _full_mask_problem()
        sol = solve_cascade(p, None, include_force=False)
        assert np.all(sol.y.fields == 0.0)
        assert np.all(sol.q.state0 == 0.0)


class TestDuality:
    @pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
    def test_exact_identity_all_roles(self, rng, dim):
        # forward/backward transposes cancel exactly, so the identity
        # holds at rounding level with every coefficient role active
        p = _partial_problem(rng, dim=dim)
        phi0 = rng.standard_normal(p.grid.shape)
        pair = solve_adjoint_pair(p, phi0)
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        sol = solve_cascade(p, v)
        res = duality_residual(sol.y, pair.psi, v, p.force_fields, pair.phi,
                               p.obs.values)
        assert res <= 1e-12

    def test_pair_is_linear_in_seed(self, rng):
        p = _partial_problem(rng)
        phi0 = rng.standard_normal(p.grid.shape)
        one = solve_adjoint_pair(p, phi0)
        two = solve_adjoint_pair(p, 2.0 * phi0)
        assert np.allclose(two.psi.fields, 2.0 * one.psi.fields,
                           rtol=1e-12, atol=1e-14)


class TestSentinel:
    def test_midpoint_quadrature(self, rng):
        p = _partial_problem(rng)
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        y = solve_cascade(p, v).y
        b = p.basis
        direct = 0.5 * p.grid.dt * sum(
            b.inner(p.obs.values * f, f) for f in y.fields)
        assert sentinel(y, p.obs.values) == pytest.approx(direct, rel=1e-12)

    def test_quadratic_scaling(self):
        grid = build_grid(1, 2.0, 16, 0.5, 24)
        u = np.sin(np.pi * grid.basis.nodes[0] / 2.0)
        fields = np.array([u for _ in range(grid.n_steps)])
        traj = Trajectory(grid.basis, grid.dt, fields, u, u)
        obs = np.ones(grid.shape)
        one = sentinel(traj, obs)
        two = sentinel(Trajectory(grid.basis, grid.dt, 2 * fields, 2 * u, 2 * u),
                       obs)
        assert two == pytest.approx(4 * one, rel=1e-13)


class TestSensitivity:
    def test_linear_fd_matches_dual(self, rng):
        p = _partial_problem(rng)
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        yhat = unit_smooth(p.basis, rng)
        report, = sentinel_sensitivity(p, v, yhat[None], tau_probe=0.1)
        # linear dynamics: the sentinel is quadratic in tau, central
        # differences are exact up to rounding
        assert report.gap_rel <= 1e-9
        bound = report.q0_norm * p.basis.norm(yhat)
        assert abs(report.d_dual) <= bound * (1 + 1e-12)
        assert report.phi_plus > 0 and report.phi_minus > 0
        assert report.tau == pytest.approx(0.1)

    @pytest.mark.parametrize("kind", ["zero", "tanh"])
    def test_stack_matches_single_directions(self, rng, kind):
        # the dual side is shared across the stack; each report must equal
        # a probe of its direction alone
        cfg = apply_quick(default_config())
        cfg["nonlinearity"] = {"kind": kind, "scale": 0.5}
        p = problem_from_config(cfg)
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        yhats = np.array([unit_smooth(p.basis, rng) for _ in range(3)])
        stacked = sentinel_sensitivity(p, v, yhats, tau_probe=0.05)
        assert len(stacked) == 3
        for yhat, report in zip(yhats, stacked):
            single, = sentinel_sensitivity(p, v, yhat[None], tau_probe=0.05)
            assert single == report

    def test_unstacked_direction_rejected(self, rng):
        p = _partial_problem(rng)
        with pytest.raises(SetupError) as exc:
            sentinel_sensitivity(p, None, unit_smooth(p.basis, rng))
        assert exc.value.code == "direction-shape"
        assert sentinel_sensitivity(p, None, np.empty((0,) + p.grid.shape)) == []

    @pytest.mark.parametrize("tau", [0.0, -0.01, float("nan"), float("inf"),
                                     1e300])
    def test_probe_step_must_be_positive(self, rng, tau):
        p = _partial_problem(rng)
        yhat = unit_smooth(p.basis, rng)
        with pytest.raises(SetupError) as exc:
            sentinel_sensitivity(p, None, yhat[None], tau_probe=tau)
        assert exc.value.code == "probe-step"

    @pytest.mark.parametrize("kind,scale,dim", [
        ("tanh", 0.1, 1), ("mixed", 0.1, 1), ("sin", 1.0, 1), ("tanh", 0.1, 2)])
    def test_semilinear_gap_at_tau_bias(self, rng, kind, scale, dim):
        # the probes march the equation the tangent costate linearizes, so
        # the gap is the central difference's tau^2 bias: it is 4/3 of
        # |d_fd - d_fd_half|, the half-step probes' measure of that bias
        cfg = apply_quick(default_config())
        cfg["nonlinearity"] = {"kind": kind, "scale": scale}
        if dim == 2:
            cfg["grid"]["dimension"] = 2
            cfg["domains"].update(omega="0.6:1.4,0.6:1.4", obs="1.0:1.8,1.0:1.8")
        p = problem_from_config(cfg)
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        yhats = np.array([unit_smooth(p.basis, rng) for _ in range(2)])
        for yhat, rep in zip(yhats, sentinel_sensitivity(p, v, yhats,
                                                         tau_probe=0.03)):
            size = rep.q0_norm * p.basis.norm(yhat) + abs(rep.d_dual)
            assert rep.gap <= 2 * abs(rep.d_fd - rep.d_fd_half) + 1e-10 * size


class TestProbeMarches:
    """The marches a sentinel makes, counted where the sentinel calls them."""

    @staticmethod
    def _record(monkeypatch, inside):
        """(march, schedule, start shape, source) of each march made while
        ``inside`` is not empty."""
        marches = []
        for name in ("solve_forward", "solve_backward", "solve_forward_nonlinear"):
            fn = getattr(cascade_sentinel, name)

            def march(*args, _fn=fn, _name=name, **kwargs):
                if inside:
                    bound = inspect.signature(_fn).bind(*args, **kwargs).arguments
                    start = bound.get("initial", bound.get("terminal"))
                    marches.append((_name, bound["schedule"], np.shape(start),
                                    bound.get("source")))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cascade_sentinel, name, march)
        return marches

    def test_linear_run_reuses_the_control_schedule(self, tmp_path, monkeypatch):
        # a 1D first-order term: the linear run inverts its one-node stack
        # once, for the control, and the sentinel marches y0 with the
        # source, then the B directions without one, on that schedule
        inverses, inside = [], []
        mode_inverse = pde_engine._mode_inverse

        def counted(basis, schedule, *args):
            inverses.append(schedule)
            return mode_inverse(basis, schedule, *args)

        monkeypatch.setattr(pde_engine, "_mode_inverse", counted)
        marches = self._record(monkeypatch, inside)
        probe = cli.sentinel_sensitivity

        def probed(*args, **kwargs):
            inside.append(True)
            return probe(*args, **kwargs)

        monkeypatch.setattr(cli, "sentinel_sensitivity", probed)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[coefficients]\nb0 = 0.3\n", encoding="utf-8")
        assert cli.main(["insensitize-linear", "--config", str(cfg), "--quick",
                         "--seed", "777", "--out", str(tmp_path / "out")]) == 0
        schedule, = inverses
        shape = (31,)  # --quick: 32 cells, 64 steps, 2 directions
        (fwd, y0_schedule, y0_shape, y0_source), \
            (rows, rows_schedule, rows_shape, rows_source), \
            (bwd, q_schedule, _, _) = marches
        assert (fwd, rows, bwd) == ("solve_forward", "solve_forward",
                                    "solve_backward")
        assert y0_schedule is rows_schedule is q_schedule is schedule
        assert y0_shape == shape and y0_source.shape == (64,) + shape
        assert rows_shape == (2,) + shape and rows_source is None

    def test_nonlinear_probes_march_in_one_batch(self, rng, monkeypatch):
        cfg = apply_quick(default_config())
        cfg["nonlinearity"]["kind"] = "tanh"
        p = problem_from_config(cfg)
        marches = self._record(monkeypatch, [True])
        yhats = np.array([unit_smooth(p.basis, rng) for _ in range(3)])
        sentinel_sensitivity(p, None, yhats)
        assert [(m[0], m[2]) for m in marches] == [
            ("solve_forward_nonlinear", (13,) + p.grid.shape),
            ("solve_backward", p.grid.shape)]
