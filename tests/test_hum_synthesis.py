"""Penalized minimization: objective identities, branches, optimality.

The smooth part of the objective is an explicit quadratic form, so
J(x) - penalty(x) must equal <grad(x) + grad(0), x> / 2 exactly; that
identity plus J(0) = 0 pins the assembled objective against the
gradient with no reference to the minimizer at all.
"""
import dataclasses
import math
import sys
import types

import numpy as np
import pytest
from scipy import optimize

from insens4 import hum_synthesis, pde_engine
from insens4.cascade_sentinel import (
    sentinel_sensitivity,
    solve_adjoint_pair,
    solve_cascade,
)
from insens4.cli import main
from insens4.config import apply_quick, default_config, problem_from_config
from insens4.errors import SynthesisError
from insens4.hum_synthesis import (
    minimize_exact,
    minimize_quadratic,
    observability_ratio_sample,
    shrink,
    verify_null,
)
from insens4.semilinear_loop import freeze_linearization
from insens4.spectral import SineBasis
from conftest import count_inverse_paths, count_transforms, unit_smooth
from oracles import eval_j, grad_j_smooth


class TestShrink:
    def test_radial_formula(self, quick_problem, rng):
        b = quick_problem.basis
        u = rng.standard_normal(quick_problem.grid.shape)
        c = 0.4 * b.norm(u)
        got = shrink(u, c, b)
        want = (1 - c / b.norm(u)) * u
        assert np.allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_inside_ball_maps_to_zero(self, quick_problem, rng):
        b = quick_problem.basis
        u = rng.standard_normal(quick_problem.grid.shape)
        assert np.all(shrink(u, 2.0 * b.norm(u), b) == 0.0)


class TestObjective:
    def test_zero_seed_zero_value(self, quick_problem):
        j0, pair = eval_j(quick_problem, np.zeros(quick_problem.grid.shape))
        assert j0 == 0.0
        assert np.all(pair.psi.fields == 0.0)

    def test_quadratic_form_identity(self, quick_problem, rng):
        p = quick_problem
        x = rng.standard_normal(p.grid.shape)
        jx, _ = eval_j(p, x)
        gs = grad_j_smooth(p, x)
        g0 = grad_j_smooth(p, np.zeros(p.grid.shape))
        quad = 0.5 * p.basis.inner(gs + g0, x)
        penalty = p.epsilon * p.basis.norm(x)
        assert jx - penalty == pytest.approx(quad, rel=1e-10)

    def test_quadratic_variant_penalty(self, quick_problem, rng):
        p = quick_problem
        x = rng.standard_normal(p.grid.shape)
        je, _ = eval_j(p, x, variant="exact")
        jq, _ = eval_j(p, x, variant="quadratic")
        nrm = p.basis.norm(x)
        assert je - jq == pytest.approx(
            p.epsilon * nrm - 0.5 * p.epsilon * nrm**2, rel=1e-10)


class TestGramian:
    def test_symmetric_positive(self, quick_problem, rng):
        p = quick_problem

        def lam(a):
            psi = solve_adjoint_pair(p, a).psi.fields
            return solve_cascade(p, p.omega.values * psi,
                                 include_force=False).q.state0

        for _ in range(4):
            a = rng.standard_normal(p.grid.shape)
            b = rng.standard_normal(p.grid.shape)
            la, lb = lam(a), lam(b)
            left = p.basis.inner(la, b)
            right = p.basis.inner(a, lb)
            # roundoff accrues at the O(1) scale of the solve chain, not
            # at the scale of the heavily smoothed outputs
            scale = p.basis.norm(a) * p.basis.norm(b)
            assert abs(left - right) <= 1e-10 * scale
            assert p.basis.inner(la, a) >= -1e-12 * p.basis.inner(a, a)


class TestExactPenalty:
    def test_interior_branch_balances(self, quick_problem):
        r = minimize_exact(quick_problem)
        assert r.branch == "interior"
        assert r.converged
        assert r.q0_norm == pytest.approx(1e-3, rel=1e-9)
        assert r.optimality_residual <= 1e-10
        assert verify_null(r).passed

    def test_zero_branch_is_uncontrolled_cascade(self, quick_problem):
        p = quick_problem
        b = solve_cascade(p, None).q.state0
        r = minimize_exact(dataclasses.replace(p, epsilon=1.0))
        assert r.branch == "zero"
        assert r.converged
        assert np.all(r.v == 0.0)
        assert np.array_equal(r.q.state0, b)
        assert verify_null(r).passed

    def test_ladder_monotone(self, quick_problem):
        p = quick_problem
        results = [minimize_exact(dataclasses.replace(p, epsilon=eps))
                   for eps in (1e-2, 1e-3, 3e-4)]
        q0s = [r.q0_norm for r in results]
        vs = [r.v_norm for r in results]
        assert q0s == sorted(q0s, reverse=True)
        assert vs == sorted(vs)

    def test_deterministic(self, quick_problem):
        a = minimize_exact(quick_problem)
        b = minimize_exact(quick_problem)
        assert np.array_equal(a.phi0, b.phi0)
        assert a.q0_norm == b.q0_norm

    def test_unstationary_step_reported(self, quick_problem, monkeypatch):
        # a model solution off the secular root fails the proximal step's
        # stationarity test: the result says so, and nothing more is applied
        secular = hum_synthesis._secular_solve

        def doubled(theta, g, eps):
            delta = secular(theta, g, eps)
            return None if delta is None else 2.0 * delta

        monkeypatch.setattr(hum_synthesis, "_secular_solve", doubled)
        r = minimize_exact(quick_problem)
        assert not r.converged
        assert r.branch == "interior"
        phases = [e["phase"] for e in r.convergence_log]
        assert phases.count("ista") == 1 and r.iterations == 1
        krylov_dim = max(e["dimension"] for e in r.convergence_log
                         if e["phase"] == "lanczos")
        assert r.operator_applies == krylov_dim + 2

    def test_stored_control_is_premasked(self, quick_problem):
        p = quick_problem
        r = minimize_exact(p)
        replay = solve_cascade(p, r.v)
        assert np.allclose(replay.q.state0, r.q.state0, rtol=0,
                           atol=1e-12 * max(np.abs(r.q.state0).max(), 1e-30))
        # masking again must not change a premasked control
        assert np.array_equal(r.v, p.omega.values * r.v)

    def test_linear_lower_work_counts_pinned(self):
        # the insensitize-linear benchmark problem (128 cells, 400 steps,
        # uniform a0 and a1): a three-step Lanczos warm start and 5 applies
        cfg = default_config()
        cfg["grid"].update(cells=128, steps=400)
        cfg["coefficients"].update(a0=0.5, a1=0.2)
        r = minimize_exact(problem_from_config(cfg), tol=cfg["penalty"]["tol"])
        assert r.converged
        assert r.operator_applies == 5
        assert [e["phase"] for e in r.convergence_log].count("lanczos") == 3


class TestLanczosNonfinite:
    @pytest.mark.parametrize("bad_apply", [1, 2])
    def test_nonfinite_apply_is_coded(self, quick_problem, bad_apply):
        # marches that did not stay finite: the first non-finite alpha or
        # beta stops the model with a coded error at its dimension
        basis = quick_problem.basis
        ramp = np.linspace(1.0, 2.0, basis.shape[0])
        calls = []

        def apply(v):
            calls.append(v)
            return np.full_like(v, np.nan) if len(calls) == bad_apply \
                else ramp * v

        syn = types.SimpleNamespace(problem=quick_problem, apply=apply)
        b = np.ones(basis.shape)
        with pytest.raises(SynthesisError) as exc:
            hum_synthesis._lanczos(syn, b, basis.norm(b),
                                   lambda theta, g: None, 1e-12, 10, [])
        err = exc.value
        assert err.code == "lanczos-nonfinite"
        assert err.context["krylov_dim"] == bad_apply == len(calls)
        assert f"Krylov dimension {bad_apply}" in str(err)


MARCHES = ("solve_forward", "solve_backward", "solve_forward_nonlinear")


def _count_work(monkeypatch):
    """Count marches, synthesis applies and node inverses from here on.

    Every march goes through one of the engine's march functions; they
    are wrapped where the other modules bound them, and none of them
    calls another.  Applies are ``_Synthesis.apply`` and ``affine``
    calls, the count ``operator_applies`` reports.  Node
    inverses are the matrices of the engine's ``_invert`` calls, one per
    distinct node of a 1D schedule that is not diagonal.
    """
    counts = {"marches": 0, "applies": 0, "inverses": 0}
    invert = pde_engine._invert

    def counted(mats, *args):
        counts["inverses"] += len(mats)
        return invert(mats, *args)

    monkeypatch.setattr(pde_engine, "_invert", counted)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("insens4.") or name == "insens4.pde_engine":
            continue
        for fn_name in MARCHES:
            fn = vars(mod).get(fn_name)
            if fn is None:
                continue

            def march(*args, _fn=fn, **kwargs):
                counts["marches"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, fn_name, march)
    for fn_name in ("apply", "affine"):
        fn = getattr(hum_synthesis._Synthesis, fn_name)

        def applied(self, *args, _fn=fn):
            counts["applies"] += 1
            return _fn(self, *args)

        monkeypatch.setattr(hum_synthesis._Synthesis, fn_name, applied)
    return counts


def _count_assemble_marches(monkeypatch, counts):
    """Marches made inside each ``_assemble`` call, in call order."""
    inside = []
    original = hum_synthesis._assemble

    def assemble(*args, **kwargs):
        before = counts["marches"]
        result = original(*args, **kwargs)
        inside.append(counts["marches"] - before)
        return result

    monkeypatch.setattr(hum_synthesis, "_assemble", assemble)
    return inside


def _exact_model(syn, basis, eps):
    """The exact variant's Lanczos warm start x and its image Lambda x."""
    b = syn.affine()
    bnorm = basis.norm(b)
    x, lam_x, _, _ = hum_synthesis._lanczos(
        syn, b, bnorm,
        lambda theta, g: hum_synthesis._secular_solve(theta, g, eps),
        1e-10, hum_synthesis.KRYLOV_CAP, [])
    return x, lam_x


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# the three march paths: mode-diagonal, 1D LU (a frozen tanh
# linearization) and 2D GMRES
PATH_CASES = ["1d-diagonal", "1d-lu-tanh", "2d-gmres"]


def _path_problem(case):
    """(problem, ops, eps) whose minimization takes the interior branch;
    eps is the problem's penalty level."""
    ops = None
    if case == "2d-gmres":
        p = _ratio_problem("2d-richardson")
        # the quick penalty exceeds this small problem's affine pull
        eps = 0.5 * p.basis.norm(solve_cascade(p, None).q.state0)
        return dataclasses.replace(p, epsilon=eps), None, eps
    cfg = apply_quick(default_config())
    if case == "1d-lu-tanh":
        cfg["nonlinearity"]["kind"] = "tanh"
    p = problem_from_config(cfg)
    if case == "1d-lu-tanh":
        ops = freeze_linearization(p, solve_cascade(p, None).y).ops
    return p, ops, p.epsilon


def _assert_superposed(p, r):
    """r's control and cascade against a full re-march of its seed."""
    pair = solve_adjoint_pair(p, r.phi0, ops=r.ops)
    # chi_omega psi, psi read on omega's box as the synthesis reads it
    box = p.omega.box
    v = np.zeros(r.v.shape)
    v[(slice(None),) + box] = p.omega.values[box] * pair.psi.on(box)
    ref = solve_cascade(p, v, ops=r.ops, include_force=True)
    assert np.array_equal(r.v, v)
    assert np.all(r.y.state0 == 0.0) and np.all(r.q.stateT == 0.0)
    # on the GMRES path each midpoint solve is linear only to INNER_TOL,
    # and q(0) is a small difference of O(||b||) terms
    tol = 1e-13 if p.grid.dim == 1 else 10 * pde_engine.INNER_TOL
    for got, want in [(r.y.fields, ref.y.fields), (r.y.stateT, ref.y.stateT),
                      (r.q.fields, ref.q.fields), (r.q.state0, ref.q.state0)]:
        assert _rel(got, want) <= tol
    assert r.q0_norm == pytest.approx(p.basis.norm(ref.q.state0), rel=tol)


class TestMarchBudget:
    """The synthesis marches only what it has not marched already."""

    @pytest.mark.parametrize("case", PATH_CASES)
    def test_superposed_cascade_matches_remarch(self, case, monkeypatch):
        p, ops, eps = _path_problem(case)
        counts = _count_work(monkeypatch)
        inside = _count_assemble_marches(monkeypatch, counts)
        r = minimize_exact(p, ops=ops)
        assert r.branch == "interior" and r.converged
        # the stored cascade of the last applied seed, or one fresh march
        # of the adjoint pair and the force-free cascade
        assert inside in ([0], [4])
        _assert_superposed(p, r)

    @pytest.mark.parametrize("case", PATH_CASES)
    def test_stored_cascade_is_reused(self, case, monkeypatch):
        # the seed applied last comes back: its stored cascade is the
        # homogeneous part, and _assemble marches nothing
        p, ops, eps = _path_problem(case)
        syn = hum_synthesis._Synthesis(p, ops)
        x, _ = _exact_model(syn, p.basis, eps)
        syn.apply(x)
        counts = _count_work(monkeypatch)
        r = hum_synthesis._assemble(syn, x, "interior", variant="exact",
                                    converged=True)
        assert counts["marches"] == 0
        _assert_superposed(p, r)

    @pytest.mark.parametrize("case", PATH_CASES)
    def test_quadratic_variant_marches_its_seed(self, case, monkeypatch):
        # the returned seed combines the Lanczos basis and was never
        # applied: _assemble applies it once
        p, ops, eps = _path_problem(case)
        counts = _count_work(monkeypatch)
        inside = _count_assemble_marches(monkeypatch, counts)
        r = minimize_quadratic(p, ops=ops)
        assert r.branch == "interior"
        assert inside == [4]
        assert counts["applies"] == r.operator_applies
        _assert_superposed(p, r)

    def test_zero_branch_marches_nothing_more(self, quick_problem, monkeypatch):
        counts = _count_work(monkeypatch)
        inside = _count_assemble_marches(monkeypatch, counts)
        r = minimize_exact(dataclasses.replace(quick_problem, epsilon=1.0))
        assert r.branch == "zero"
        assert inside == [0]
        assert counts == {"marches": 2, "applies": 1, "inverses": 0}
        assert r.operator_applies == 1

    @pytest.mark.parametrize("case", ["1d-diagonal", "1d-lu-tanh"])
    def test_lanczos_image_matches_apply(self, case):
        # x = -sum yhat_i v_i, so Lambda x is the same sum of the images
        p, ops, eps = _path_problem(case)
        syn = hum_synthesis._Synthesis(p, ops)
        x, lam_x = _exact_model(syn, p.basis, eps)
        assert _rel(lam_x, syn.apply(x)) <= 1e-13

    def test_verify_null_remarches(self, quick_problem, monkeypatch):
        r = minimize_exact(quick_problem)
        counts = _count_work(monkeypatch)
        verify_null(r)
        assert counts == {"marches": 2, "applies": 0, "inverses": 0}

    @pytest.mark.parametrize(
        "command,ini,flags,marches,applies,factors,picard,rc", [
            ("insensitize-linear", "[grid]\ncells = 128\nsteps = 400\n"
             "[coefficients]\na0 = 0.5\na1 = 0.2\n", [], 23, 5, 0, None, 0),
            ("insensitize-semilinear", "[nonlinearity]\nkind = tanh\n", [],
             76, 20, 1400, 4, 0),
            ("insensitize-linear", "", ["--quick"], 23, 5, 0, None, 0),
            ("insensitize-semilinear", "[nonlinearity]\nkind = tanh\n",
             ["--quick"], 76, 20, 448, 4, 0),
            ("insensitize-linear", "[penalty]\nvariant = quadratic\n",
             ["--quick"], 19, 4, 0, None, 2),
        ], ids=["linear-lower-1d", "semilinear-tanh-1d", "linear-quick",
                "semilinear-tanh-quick", "linear-quadratic-quick"])
    def test_benchmark_counts_pinned(self, command, ini, flags, marches,
                                     applies, factors, picard, rc, tmp_path,
                                     monkeypatch):
        # per exact minimization: the forced cascade (2 marches), a
        # three-vector Lanczos basis (12) and one proximal trial (4), whose
        # cascade is the one returned, also when that trial is stationary;
        # verify_null adds 2 per run.  A linear run's sentinel marches y0,
        # its directions and the costate (3), a tanh run's the batched
        # probes and the costate (2).  The tanh runs take 4 Picard
        # iterations: 4 x 18 + 2 + 2 = 76.  The quadratic run builds a
        # two-vector basis (8) and applies its seed once (4); its
        # null-condition check fails (rc 2), as ||q0|| = eps ||phi0||.
        # The linear runs march diagonal schedules and invert nothing.  A
        # tanh run's first linearization, frozen at z = 0, is diagonal on
        # both legs; each later one inverts one step matrix per step on
        # each leg, and the sentinel probes' tangent schedule one more
        # stack: 7 x Nt inverses (Nt = 200 by default, 64 with --quick).
        # Every one of those step matrices has rho <= 2.8e-5 (default size)
        # or 8.4e-5 (--quick), so all take the Neumann product with K = 2
        # and none goes to LAPACK.
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini, encoding="utf-8")
        out = tmp_path / "out"
        counts = _count_work(monkeypatch)
        paths = count_inverse_paths(monkeypatch)
        assert main([command, "--config", str(cfg), "--seed", "777",
                     "--out", str(out), *flags]) == rc
        assert counts == {"marches": marches, "applies": applies,
                          "inverses": factors}
        assert paths == {"neumann": {2: factors} if factors else {},
                         "lapack": 0}
        if picard is not None:
            summary = (out / "control_summary.csv").read_text().splitlines()
            row = dict(zip(summary[0].split(","), summary[1].split(",")))
            assert int(row["iterations"]) == picard


class TestRecordConversions:
    """Masked hand-offs read the previous march on the mask's box, and a
    record converts only when it is read: no unboxed transform of an
    (Nt, ...) record."""

    @pytest.mark.parametrize("case", PATH_CASES)
    def test_apply_converts_q0_only(self, case, rng, monkeypatch):
        p, ops, _ = _path_problem(case)
        syn = hum_synthesis._Synthesis(p, ops)
        phi0 = unit_smooth(p.basis, rng)
        calls = count_transforms(monkeypatch)
        syn.apply(phi0)
        # phi's and y's records read on the obs box and psi's on omega's;
        # psi's, y's and q's sources go to modes on those boxes
        boxed = {("from_modes", True, True): 3, ("to_modes", True, True): 3}
        if p.grid.dim == 1:
            # the seed and q(0), one field each
            assert calls == boxed | {("to_modes", False, False): 1,
                                     ("from_modes", False, False): 1}
        else:
            # GMRES steps transform single fields
            assert {key: n for key, n in calls.items()
                    if key[1] or key[2]} == boxed

    def test_verify_null_converts_q0_only(self, quick_problem, monkeypatch):
        r = minimize_exact(quick_problem)
        calls = count_transforms(monkeypatch)
        verify_null(r)
        # y's full-grid source v + f in one product, y's record read on the
        # obs box as q's source there, and q(0)
        assert calls == {("to_modes", False, True): 1,
                         ("from_modes", True, True): 1,
                         ("to_modes", True, True): 1,
                         ("from_modes", False, False): 1}

    def test_linear_sentinel_reads_the_obs_box(self, quick_problem, rng,
                                                monkeypatch):
        p = quick_problem
        yhats = np.array([unit_smooth(p.basis, rng) for _ in range(3)])
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        calls = count_transforms(monkeypatch)
        sentinel_sensitivity(p, v, yhats)
        nt = p.grid.n_steps
        blocks = -(-nt // max(1, min(nt, pde_engine.HOOK_BLOCK_BYTES
                                     // yhats.nbytes)))
        # y0's source and the directions' starts go to modes whole; y0's
        # record and each block of the directions' sums are read on the
        # obs box, the costate's source goes there, and q(0) converts
        assert calls == {("to_modes", False, True): 2,
                         ("from_modes", True, True): 1 + blocks,
                         ("to_modes", True, True): 1,
                         ("from_modes", False, False): 1}


class TestQuadraticPenalty:
    def test_first_order_identity(self, quick_problem):
        # the quadratic-variant optimum satisfies q0 = -eps * phi0
        r = minimize_quadratic(quick_problem)
        assert r.converged
        scale = np.abs(r.q.state0).max()
        assert np.allclose(r.q.state0, -1e-3 * r.phi0, rtol=0, atol=1e-6 * scale)

    def test_logged_objective_is_model_value(self, quick_problem):
        # -1/2 g^T (g / (theta + eps)) on the Ritz pairs is the model value
        # 1/2 <phi0, (Lambda + eps) phi0> + <b, phi0>, with Lambda phi0 =
        # q0 - b
        p = quick_problem
        r = minimize_quadratic(p)
        b = solve_cascade(p, None).q.state0
        inner = p.basis.inner
        want = 0.5 * inner(r.phi0, r.q.state0 - b + 1e-3 * r.phi0) + inner(b, r.phi0)
        assert r.objective == pytest.approx(want, rel=1e-12)
        assert r.convergence_log[-1]["objective"] == r.objective

    def test_null_check_reports_honestly(self, quick_problem):
        # ||q0|| = eps ||phi0|| generally exceeds 1.01 eps, and the
        # report must say so rather than relabel the bound
        r = minimize_quadratic(quick_problem)
        rep = verify_null(r)
        assert rep.q0_norm == pytest.approx(r.q0_norm, rel=1e-13)
        assert rep.passed == (r.q0_norm <= 1.01 * 1e-3 and rep.bound_within)

    def test_null_check_bound_follows_constants(self, quick_problem):
        # the minimizers compute the control bound once; scaling H by 4
        # doubles it
        r = minimize_quadratic(quick_problem)
        assert hum_synthesis._control_bound(quick_problem) == r.bound_value

        def scaled(factor):
            constants = dataclasses.replace(
                quick_problem.constants,
                cost_h=factor * quick_problem.constants.cost_h)
            return dataclasses.replace(quick_problem, constants=constants)

        assert hum_synthesis._control_bound(scaled(4.0)) == \
            pytest.approx(2 * r.bound_value, rel=1e-15)
        # bound_within reads the result's bound: one of half ||v|| fails it
        assert verify_null(r).bound_within
        half = dataclasses.replace(r, bound_value=0.5 * r.v_norm)
        assert not verify_null(half).bound_within

    def test_zero_budget_returns_zero_seed(self, quick_problem):
        r = minimize_quadratic(quick_problem, max_iter=0)
        assert not r.converged
        assert r.branch == "interior" and r.iterations == 0
        assert np.all(r.phi0 == 0.0) and np.all(r.v == 0.0)
        b = solve_cascade(quick_problem, None).q.state0
        assert r.optimality_residual == quick_problem.basis.norm(b)

    def test_indefinite_model_is_coded(self, quick_problem, monkeypatch):
        # an operator that lost positivity: Lambda = -I makes the model of
        # Lambda + eps I negative definite at the first Krylov vector
        monkeypatch.setattr(hum_synthesis._Synthesis, "apply",
                            lambda self, phi0: -phi0)
        with pytest.raises(SynthesisError) as exc:
            minimize_quadratic(quick_problem)
        assert exc.value.code == "cg-stall"
        assert exc.value.context["krylov_dim"] == 1


def _secular_models(n_models, seed=11):
    """(theta, g, eps) of n random secular problems on SPD models.

    Each model is a diagonally dominant tridiagonal T, given by its Ritz
    pairs, with a random right-hand side norm beta0 above eps.
    """
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n_models):
        m = int(rng.integers(1, 13))
        scale = 10.0 ** rng.uniform(-3, 3)
        betas = scale * rng.uniform(-1, 1, m)
        off = np.abs(np.concatenate(([0.0], betas[:m - 1])))
        alphas = off + np.abs(betas) + scale * 10.0 ** rng.uniform(-4, 1, m)
        beta0 = 10.0 ** rng.uniform(-2, 2)
        eps = beta0 * 10.0 ** rng.uniform(-8, -0.001)
        theta, q = np.linalg.eigh(hum_synthesis._tridiagonal(alphas, betas))
        models.append((theta, beta0 * q[0], eps))
    return models


def _secular_gap(theta, g, eps):
    """delta -> delta ||y(delta)|| - eps in closed form on the Ritz pairs."""
    return lambda delta: delta * float(np.linalg.norm(g / (theta + delta))) - eps


class TestSecularNewton:
    def test_root_balances_norm(self, monkeypatch):
        # each Newton step takes one square root, that of ||y(delta)||^2
        steps = []

        def sqrt(x):
            steps[-1] += 1
            return math.sqrt(x)

        monkeypatch.setattr(hum_synthesis, "math",
                            types.SimpleNamespace(sqrt=sqrt, inf=math.inf))
        for theta, g, eps in _secular_models(520):
            steps.append(0)
            delta = hum_synthesis._secular_solve(theta, g, eps)
            gap = _secular_gap(theta, g, eps)
            assert abs(gap(delta)) <= 1e-13 * eps
            # delta_0 of the solver is a bracket end with gap >= 0
            hi = eps * theta[-1] / (np.linalg.norm(g) - eps)
            want = optimize.brentq(gap, 0.0, hi * (1 + 1e-12), xtol=1e-300,
                                   rtol=1e-15, maxiter=500)
            assert delta == pytest.approx(want, rel=1e-12)
        # counting the last step, which no longer shrank and was not taken
        assert max(steps) <= 12 < hum_synthesis.SECULAR_STEP_CAP

    @pytest.mark.parametrize("theta", [[-2.0, -1.0], [-1.0, 0.0], [-1.0, 2.0]],
                             ids=["negative", "zero", "indefinite"])
    def test_model_without_root(self, theta):
        # indefinite: delta ||y(delta)|| >= 0.8 delta / (delta + 2) > 0.1
        # for every delta > -theta_min = 1, so no shift balances the norm
        g = np.array([0.6, 0.8])
        assert hum_synthesis._secular_solve(np.array(theta), g, 0.1) is None

    def test_degenerate_operator_is_coded(self, quick_problem, monkeypatch):
        # Lambda = 0 makes T = 0: delta ||y(delta)|| = ||b|| > eps for
        # every delta, so no penalty weight balances the norm
        monkeypatch.setattr(hum_synthesis._Synthesis, "apply",
                            lambda self, phi0: np.zeros_like(phi0))
        with pytest.raises(SynthesisError) as exc:
            minimize_exact(quick_problem)
        assert exc.value.code == "synthesis-degenerate"
        assert exc.value.context["krylov_dim"] == 1


# problems whose marches take each path of the engine (see _ratio_problem);
# "2d-richardson" is the 2D GMRES path, under the id it has always had
RATIO_CASES = ["1d-diagonal", "1d-lu", "2d-diagonal", "2d-richardson"]


class TestRatioSample:
    def test_deterministic_and_shaped(self, quick_problem):
        a = observability_ratio_sample(quick_problem, n_samples=4, seed=3)
        b = observability_ratio_sample(quick_problem, n_samples=4, seed=3)
        assert a.max_ratio == b.max_ratio
        assert a.n_samples == 4 and len(a.samples) == 4
        assert {s["status"] for s in a.samples} <= {"ok", "degenerate-psi"}
        assert a.max_ratio >= a.median_ratio > 0
        assert np.isfinite(a.empirical_c)

    def test_mode_cap_restricts_seeds(self, quick_problem):
        r = observability_ratio_sample(quick_problem, n_samples=3, seed=0,
                                       mode_cap=4)
        assert r.mode_cap == 4
        assert all(np.isfinite(s["ratio"]) for s in r.samples)

    def test_sample_count_guard(self, quick_problem):
        with pytest.raises(SynthesisError) as exc:
            observability_ratio_sample(quick_problem, n_samples=0)
        assert exc.value.code == "sample-count"

    def test_mode_cap_guard(self, quick_problem):
        with pytest.raises(SynthesisError) as exc:
            observability_ratio_sample(quick_problem, n_samples=1, mode_cap=-3)
        assert exc.value.code == "mode-cap"

    @pytest.mark.parametrize("case", RATIO_CASES)
    def test_matches_stored_pair_formula(self, case, monkeypatch):
        # the stacked, boxed, streamed sampler against the ratio of the
        # stored adjoint pair, draw by draw
        problem = _ratio_problem(case)
        got = observability_ratio_sample(problem, n_samples=4, seed=5)
        monkeypatch.setattr(hum_synthesis, "_ratio_stack", _stored_pair_ratios)
        want = observability_ratio_sample(problem, n_samples=4, seed=5)
        _assert_same_draws(got, want)

    def test_full_grid_transforms_pinned(self, monkeypatch):
        # no step of either march transforms a full grid: the full-grid
        # transforms are the seeds' synthesis and, per stack, phi's start;
        # neither march's end state is read.  Per block of steps and
        # stack, phi's record and psi's source stay on the obs box and
        # psi's control-window energy reads omega's box.  One stack of 5
        # draws, whose 20 steps fit one block.
        _assert_transform_counts(monkeypatch, rows=None)

    @pytest.mark.parametrize("rows", [1, 2], ids=["rows1", "rows2"])
    @pytest.mark.parametrize("steps", [None, 3], ids=["whole", "k3"])
    def test_full_grid_transforms_pinned_per_stack(self, rows, steps,
                                                   monkeypatch):
        # the same counts with the stack cap forced to 1 and 2 rows, and
        # with blocks of 3 steps of a full stack
        _assert_transform_counts(monkeypatch, rows=rows, steps=steps)

    @pytest.mark.parametrize("case", RATIO_CASES)
    def test_stack_size_does_not_move_ratios(self, case, monkeypatch):
        problem = _ratio_problem(case)
        assert hum_synthesis.RATIO_STACK_CAP_BYTES >= 5 * _record_row(problem)
        one_stack = observability_ratio_sample(problem, n_samples=5, seed=8)
        _force_stack_rows(monkeypatch, problem, 1)
        row_by_row = observability_ratio_sample(problem, n_samples=5, seed=8)
        _assert_same_draws(row_by_row, one_stack)

    def test_zero_seed_keeps_its_place(self, monkeypatch):
        # a zero seed mid-stack is reported degenerate at its index, and
        # its stack-mates keep their ratios
        problem = _ratio_problem("2d-diagonal")
        want = observability_ratio_sample(problem, n_samples=4, seed=6)
        original = SineBasis.random_smooth
        drawn = []

        def zero_second(basis, rng, decay, cap=None):
            field = original(basis, rng, decay, cap)
            drawn.append(field)
            return 0.0 * field if len(drawn) == 2 else field

        monkeypatch.setattr(SineBasis, "random_smooth", zero_second)
        got = observability_ratio_sample(problem, n_samples=4, seed=6)
        assert got.n_degenerate == want.n_degenerate + 1
        bad = got.samples[1]
        assert (bad["index"], bad["decay"], bad["status"]) == \
            (1, want.samples[1]["decay"], "degenerate-psi")
        assert np.isnan(bad["ratio"])
        _assert_same_draws(got.samples[:1] + got.samples[2:],
                           want.samples[:1] + want.samples[2:])

    @pytest.mark.parametrize("poison", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_row_is_not_ok(self, monkeypatch, poison):
        # a draw whose energies are not finite among finite ones gets its
        # own status and stays out of the maximum (an infinite
        # control-window energy would read as the ratio 0); its
        # stack-mates keep theirs
        problem = _ratio_problem("2d-diagonal")
        want = observability_ratio_sample(problem, n_samples=4, seed=6)

        def poisoned(*args, **kwargs):
            psi = pde_engine.solve_backward(*args, **kwargs)
            psi.fields[:, 1, 1] = poison   # row 1's control-window energy
            return psi

        monkeypatch.setattr(hum_synthesis, "solve_backward", poisoned)
        got = observability_ratio_sample(problem, n_samples=4, seed=6)
        bad = got.samples[1]
        assert (bad["index"], bad["status"]) == (1, "nonfinite")
        assert np.isnan(bad["ratio"])
        assert (got.n_nonfinite, got.n_degenerate) == (1, want.n_degenerate)
        others = got.samples[:1] + got.samples[2:]
        _assert_same_draws(others, want.samples[:1] + want.samples[2:])
        assert got.max_ratio == max(s["ratio"] for s in others)


def _assert_same_draws(got, want):
    """Same indices, decays and statuses, and ratios to 1e-13 relative."""
    got = getattr(got, "samples", got)
    want = getattr(want, "samples", want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["index"], g["decay"], g["status"]) == \
            (w["index"], w["decay"], w["status"])
        assert g["ratio"] == pytest.approx(w["ratio"], rel=1e-13, abs=0)


def _record_row(problem):
    """Bytes of one draw's obs-box record of phi."""
    return 8 * problem.grid.n_steps * problem.obs.values[problem.obs.box].size


def _force_stack_rows(monkeypatch, problem, rows):
    """Cap the sampler's stacks at ``rows`` draws for ``problem``."""
    monkeypatch.setattr(hum_synthesis, "RATIO_STACK_CAP_BYTES",
                        rows * _record_row(problem))


def _stored_pair_ratios(problem, stack, weights, ops):
    return [_stored_pair_ratio(problem, phi0, weights, ops) for phi0 in stack]


def _assert_transform_counts(monkeypatch, rows, steps=None):
    """Count full-grid and boxed SineBasis transforms of a 5-draw sample.

    Each march of a stack of r rows steps in blocks of k = HOOK_BLOCK_BYTES
    // (r field bytes) steps, capped at Nt; ``steps`` sets the constant to
    that many steps of a full stack.
    """
    problem = _ratio_problem("2d-diagonal")
    n, nt = 5, problem.grid.n_steps
    if rows is not None:
        _force_stack_rows(monkeypatch, problem, rows)
    sizes = [n] if rows is None else [min(rows, n - i) for i in range(0, n, rows)]
    field_bytes = 8 * problem.basis.shape[0] * problem.basis.shape[1]
    if steps is not None:
        monkeypatch.setattr(pde_engine, "HOOK_BLOCK_BYTES",
                            steps * max(sizes) * field_bytes)
    blocks = [-(-nt // max(1, min(nt, pde_engine.HOOK_BLOCK_BYTES
                                  // (size * field_bytes))))
              for size in sizes]
    calls = count_transforms(monkeypatch)
    observability_ratio_sample(problem, n_samples=n, seed=2)
    # full grids: each seed's synthesis and each stack's start; per block,
    # phi's record and psi's source on the obs box and psi's record on
    # omega's box.  The end states are never read, so never converted
    assert calls == {("from_modes", False, False): n,
                     ("to_modes", False, True): len(sizes),
                     ("from_modes", True, True): 2 * sum(blocks),
                     ("to_modes", True, True): sum(blocks)}
    if steps is not None:
        assert blocks[0] == -(-nt // steps)


def _stored_pair_ratio(problem, phi0, weights, ops):
    """The ratio from the stored (Nt, *shape) fields of the adjoint pair."""
    pair = solve_adjoint_pair(problem, phi0, ops=ops)
    psi2 = pair.psi.fields ** 2
    cell = problem.grid.dt * problem.basis.cell_volume
    num = cell * float(weights @ psi2.reshape(len(weights), -1).sum(axis=1))
    den = cell * float(np.sum(problem.omega.values * psi2))
    if den <= 1e-300:
        return float("nan"), "degenerate-psi"
    return num / den, "ok"


def _ratio_problem(case):
    """Small problems whose marches take each path of the engine."""
    cfg = apply_quick(default_config())
    if case.startswith("2d"):
        cfg["grid"].update(dimension=2, cells=12, steps=20)
        cfg["domains"].update(omega="0.4:1.6,0.4:1.6", obs="0.8:1.8,0.8:1.8")
    dim = cfg["grid"]["dimension"]
    if case.endswith(("lu", "richardson")):
        cfg["coefficients"]["b0"] = (0.3, -0.2)[:dim]
        cfg["coefficients"]["a0"] = 0.5
    return problem_from_config(cfg)
