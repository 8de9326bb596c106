"""Frozen linearizations and the outer substitution loop.

The secant coefficients have closed forms for the catalog terms:
int_0^1 F_u(theta z) dtheta equals s*z for F = s*u^2, s*sin(z)/z for
F = s*sin(u), and s*tanh(z)/z for F = s*tanh(u).  The quadrature is
exact for polynomials and at rounding level for the analytic kinds.
"""
import gc
import types

import numpy as np
import pytest

import insens4.semilinear_loop as sl
from insens4 import config
from insens4.config import apply_quick, default_config, problem_from_config
from insens4.errors import IterationError
from insens4.hum_synthesis import minimize_exact
from insens4.nonlinearity import NonlinearitySpec, make_nonlinearity
from insens4.pde_engine import Trajectory, _ModeInverse, make_schedule
from insens4.semilinear_loop import (
    eval_g,
    freeze_linearization,
    ftc_residual,
    picard_insensitize,
    tangent_schedule,
)
from insens4.problem_setup import CoefficientField
from insens4.spectral import SineBasis
from conftest import unit_smooth


def _trajectory(problem, rng, scale=0.8):
    grid = problem.grid
    fields = scale * rng.standard_normal((grid.n_steps,) + grid.shape)
    return Trajectory(grid.basis, grid.dt, fields, fields[0], fields[-1])


def _nl_problem(kind, scale, **over):
    cfg = apply_quick(default_config())
    cfg["nonlinearity"] = {"kind": kind, "scale": scale}
    for sec, kv in over.items():
        cfg[sec].update(kv)
    return problem_from_config(cfg)


class TestSecantCoefficients:
    def test_quadratic_secant_exact(self, quick_problem, rng):
        z = _trajectory(quick_problem, rng)
        frozen = eval_g(make_nonlinearity("quadratic", scale=1.4), z)
        assert np.allclose(frozen.g1, 1.4 * z.fields, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("kind,form", [
        ("sin", lambda z, c: c * np.sin(z) / z),
        ("tanh", lambda z, c: c * np.tanh(z) / z),
    ])
    def test_analytic_secants(self, quick_problem, rng, kind, form):
        z = _trajectory(quick_problem, rng)
        # keep |z| away from 0 so the closed form is well conditioned
        z.fields[np.abs(z.fields) < 0.05] = 0.05
        c = 0.9
        frozen = eval_g(make_nonlinearity(kind, scale=c), z)
        assert np.allclose(frozen.g1, form(z.fields, c), rtol=1e-11, atol=1e-12)

    def test_tangent_is_pointwise_derivative(self, quick_problem, rng):
        z = _trajectory(quick_problem, rng)
        c = 1.1
        frozen = eval_g(make_nonlinearity("tanh", scale=c), z)
        assert np.allclose(frozen.tangent_u, c / np.cosh(z.fields) ** 2,
                           rtol=1e-13, atol=1e-14)

    def test_offset_is_value_at_origin(self, rng):
        p = _nl_problem("tanh", 0.5)
        frozen = freeze_linearization(p, _trajectory(p, rng))
        assert p.nonlinearity.f0 == 0.0
        assert frozen.ops.reaction_offset == -p.nonlinearity.f0

    def test_ftc_residual_small(self, quick_problem, rng):
        z = _trajectory(quick_problem, rng)
        for kind in ("tanh", "sin"):
            res = ftc_residual(make_nonlinearity(kind, scale=0.7), z)
            assert res <= 1e-10
        assert ftc_residual(make_nonlinearity("quadratic", scale=0.7), z) <= 1e-13

    @pytest.mark.parametrize("kind", ["tanh", "mixed", "quadratic"])
    def test_stacked_matches_per_node_loop(self, desk_problem, rng, kind):
        # each partial runs once per quadrature node on the whole stack;
        # the pointwise arithmetic is that of a loop over time nodes.  The
        # jet is one derivative call on the stack, which agrees with
        # per-node calls to rounding (a stack takes gemm, a field gemv).
        basis = desk_problem.basis
        grid = desk_problem.grid
        fields = np.array([unit_smooth(basis, rng, decay=3.0)
                           for _ in grid.times])
        z = Trajectory(basis, grid.dt, fields, fields[0], fields[-1])
        nl = make_nonlinearity(kind, scale=0.7)
        grads, hessians = basis.gradient(fields), basis.hessian(fields)
        for j, u in enumerate(fields):
            for stacked, single in ((grads[:, j], basis.gradient(u)),
                                    (hessians[:, :, j], basis.hessian(u))):
                assert np.abs(stacked - single).max() \
                    <= 1e-12 * np.abs(single).max()
        # a family F does not read (no partial) is None, the rest match
        partials = (nl.f_u, nl.f_p, nl.f_r)
        assert (nl.f_p is None) == (nl.f_r is None) == (kind != "mixed")
        want = {name: [] for name in ("g1", "g2", "g3", "tangent_u",
                                      "tangent_p", "tangent_r")}
        for j, u in enumerate(z.fields):
            p, r = grads[:, j], hessians[:, :, j]
            acc = [np.zeros_like(u), np.zeros_like(p), np.zeros_like(r)]
            for tau, w in zip(sl._TAU, sl._TAU_W):
                for k, f in enumerate(partials):
                    if f is not None:
                        acc[k] += w * f(tau * u, tau * p, tau * r)
            for name, val in zip(want, acc + [f and f(u, p, r)
                                              for f in partials]):
                want[name].append(val)
        got = eval_g(nl, z)
        for (name, vals), f in zip(want.items(), partials * 2):
            if f is None:
                assert getattr(got, name) is None, name
            else:
                assert np.array_equal(getattr(got, name), np.array(vals)), name

    @pytest.mark.parametrize("kind", ["mixed", "tanh"])
    def test_jet_is_one_derivative_call_per_order(self, rng, monkeypatch, kind):
        # each jet takes one gradient and one Hessian call on the whole
        # stack, and none for a kind that reads only u
        problem = _nl_problem(kind, 0.5)
        basis = problem.basis
        calls = []
        for name in ("gradient", "hessian"):
            real = getattr(SineBasis, name)
            monkeypatch.setattr(
                SineBasis, name,
                lambda self, u, real=real: calls.append(u.shape) or real(self, u))
        grid = problem.grid
        fields = np.array([unit_smooth(basis, rng, decay=3.0) for _ in grid.times])
        z = Trajectory(basis, grid.dt, fields, fields[0], fields[-1])
        nl = problem.nonlinearity
        frozen = eval_g(nl, z)
        ftc_residual(nl, z, frozen)
        per_jet = 2 if kind == "mixed" else 0
        assert calls == [z.fields.shape] * (2 * per_jet)
        tangent_schedule(problem, z)
        assert calls == [z.fields.shape] * (3 * per_jet)

    def test_nonfinite_linearization_is_loud(self, quick_problem, rng):
        z = _trajectory(quick_problem, rng)
        bad = NonlinearitySpec(
            "bad", 1,
            f=lambda u, p, r: u,
            f_u=lambda u, p, r: np.where(u > 0, np.nan, 1.0),
        )
        with pytest.raises(IterationError) as exc:
            eval_g(bad, z)
        assert exc.value.code == "nonlinearity-eval-failure"


class TestPicard:
    def test_zero_reaction_one_iteration_bitwise(self):
        # a z-independent linearization is stationary after one solve and
        # must reproduce the linear pipeline exactly
        cfg = apply_quick(default_config())
        p = problem_from_config(cfg)
        result = picard_insensitize(p)
        assert result.converged
        assert result.iterations == 1
        assert result.history[-1].get("note") == "linearization-stationary"
        linear = minimize_exact(p)
        assert np.array_equal(result.final.v, linear.v)
        assert result.final.q0_norm == linear.q0_norm

    def test_tanh_converges_inside_ball(self):
        p = _nl_problem("tanh", 0.1)
        r = picard_insensitize(p, tol=1e-10)
        assert r.converged
        assert r.final.q0_norm == pytest.approx(p.epsilon, rel=1e-6)
        assert r.increments[-1] <= 1e-10 * (1.0 + r.z_norms[-1])
        assert r.inside_ball
        assert len(r.contraction_factors) == len(r.increments) - 1
        assert max(r.contraction_factors) < 1.0

    def test_budget_exhaustion_raises(self):
        p = _nl_problem("tanh", 0.1)
        with pytest.raises(IterationError) as exc:
            picard_insensitize(p, tol=1e-14, max_iter=1)
        assert exc.value.code == "maxIter-exceeded"
        assert len(exc.value.context["history"]) == 1

    def test_empty_budget_raises(self, quick_problem):
        with pytest.raises(IterationError) as exc:
            picard_insensitize(quick_problem, max_iter=0)
        assert exc.value.code == "maxIter-exceeded"

    def test_divergence_guard(self, monkeypatch):
        # five consecutive increment growths abort the loop; drive them
        # with a minimizer stub whose controlled state grows geometrically
        p = _nl_problem("tanh", 0.1)
        grid = p.grid
        base = np.ones((grid.n_steps,) + grid.shape)

        class _Stub:
            calls = 0

            def __init__(self):
                _Stub.calls += 1
                fields = (3.0 ** _Stub.calls) * base
                self.y = Trajectory(grid.basis, grid.dt, fields, fields[0],
                                    fields[-1])
                self.q = self.y
                self.q0_norm = 0.0
                self.v_norm = 0.0
                self.converged = True

        monkeypatch.setattr(sl, "minimize_exact",
                            lambda *a, **k: _Stub())
        with pytest.raises(IterationError) as exc:
            picard_insensitize(p, tol=1e-12)
        assert exc.value.code == "picard-divergence"
        incs = exc.value.context["increments"]
        assert len(incs) >= 6
        assert all(b > a for a, b in zip(incs[-5:], incs[-4:]))


class TestCallableCoefficient:
    @pytest.mark.parametrize("in_time", [False, True], ids=["x", "xt"])
    def test_evaluated_once_per_node(self, monkeypatch, in_time):
        # validation evaluates a callable at every midpoint node and keeps
        # the values, so no schedule of the Picard loop evaluates it again
        calls = []

        def damping(x, t):
            calls.append(t)
            return (0.5 + 0.1 * np.sin(np.pi * x)) * (1.0 + in_time * t)

        fields = {"a0": CoefficientField.from_callable("a0", damping, 1.2)}
        monkeypatch.setattr(config, "coefficients_from_config",
                            lambda cfg, dim: fields)
        p = _nl_problem("tanh", 0.1)
        nt = p.grid.n_steps
        assert calls == p.grid.times.tolist()
        r = picard_insensitize(p)
        assert r.converged and r.iterations > 1
        assert len(calls) == nt
        # the kept values schedule the bits the field schedules
        kept = make_schedule(p.grid, p.coefficients)
        fresh = make_schedule(p.grid, fields)
        assert len({id(nc) for nc in kept.nodes}) == (nt if in_time else 1)
        for got, want in zip(kept.nodes, fresh.nodes):
            assert np.array_equal(got.a0, want.a0)


class TestTangentSchedule:
    def test_matches_frozen_tangent(self, rng):
        p = _nl_problem("tanh", 0.3)
        z = _trajectory(p, rng, scale=0.4)
        sched = tangent_schedule(p, z)
        frozen = freeze_linearization(p, z)
        for j in (0, p.grid.n_steps // 2, p.grid.n_steps - 1):
            got = sched.nodes[j]
            want = frozen.ops.costate_schedule.nodes[j]
            assert np.array_equal(got.a0, want.a0)


def _reachable(root, cls):
    """Instances of cls reachable from root, not crossing code or modules."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType)
    seen, found, todo = set(), {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, cls):
            found[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return list(found.values())


class TestFactorRetention:
    def test_one_linearization_keeps_factors(self, monkeypatch):
        p = _nl_problem("tanh", 0.1)
        seen, decisions = [], []

        def spy(problem, ops=None, **kwargs):
            # every earlier linearization is retired before the next solve
            for old in seen:
                assert old.state_schedule.factors is None
                assert old.costate_schedule.factors is None
            seen.append(ops)
            result = minimize_exact(problem, ops=ops, **kwargs)
            decisions.append([type(s.factors[1]) for s in
                              (ops.state_schedule, ops.costate_schedule)])
            return result

        monkeypatch.setattr(sl, "minimize_exact", spy)
        r = picard_insensitize(p, tol=1e-10)
        assert len(seen) == r.iterations >= 2
        # the first linearization, frozen at z = 0, is constant in space
        # and time: both legs take the diagonal mode factors
        assert decisions[0] == [list, list]
        assert decisions[1] == [_ModeInverse, _ModeInverse]
        final = {id(r.frozen.ops.state_schedule.factors[1]),
                 id(r.frozen.ops.costate_schedule.factors[1])}
        assert None not in (r.frozen.ops.state_schedule.factors[1],
                            r.frozen.ops.costate_schedule.factors[1])
        reachable = _reachable(r, _ModeInverse)
        assert {id(f) for f in reachable} == final
