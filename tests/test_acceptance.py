"""Acceptance battery: one test and one printed verdict per criterion.

Everything runs on the default desk problem (1D, 64 cells, 200 steps,
T = 1) unless a criterion names its own sizes.  Verdict lines are
emitted with capture suspended so they stay visible in piped pytest
output; each line carries the measured numbers next to the tolerance
they are held to.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from insens4.carleman_weights import (
    build_weights,
    check_envelope_bounds,
    check_weight_properties,
)
from insens4.cascade_sentinel import (
    sentinel_sensitivity,
    solve_adjoint_pair,
    solve_cascade,
)
from insens4.cli import _mms_error
from insens4.config import default_config, problem_from_config
from insens4.hum_synthesis import (
    minimize_exact,
    observability_ratio_sample,
    verify_null,
)
from insens4.pde_engine import duality_residual, make_schedule, solve_forward
from insens4.problem_setup import (
    CoefficientField,
    ProblemConfig,
    build_grid,
    build_mask,
    validate_problem,
)
from insens4.semilinear_loop import picard_insensitize
from oracles import eval_j, grad_j_smooth


def _line(cap, num: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with cap.disabled():
        print(f"\n{tag} criterion-{num:02d} {name}: {detail}", flush=True)
    assert ok, f"criterion-{num:02d} {name}: {detail}"


def _smooth(basis, rng) -> np.ndarray:
    # frozen 1D probe family: power-law mode decay, unit L2 norm
    cap = basis.shape[0]
    idx = np.arange(1, cap + 1, dtype=float)
    m = rng.standard_normal(cap) * idx ** -1.5
    u = basis.from_modes(m)
    return u / basis.norm(u)


@pytest.fixture(scope="module")
def ladder(desk_problem):
    return {eps: minimize_exact(dataclasses.replace(desk_problem, epsilon=eps))
            for eps in (1e-2, 1e-3, 1e-4)}


@pytest.fixture(scope="module")
def probes(desk_problem, ladder):
    """Criteria 8 and 5 share one generator stream, in that order."""
    p = desk_problem
    rng = np.random.default_rng(np.random.Philox(123))
    v = ladder[1e-3].v

    yhats = np.array([_smooth(p.basis, rng) for _ in range(20)])
    sens = sentinel_sensitivity(p, v, yhats, tau_probe=0.3)

    eps = p.epsilon  # 1e-3, the control's own
    x = _smooth(p.basis, rng)
    gs = grad_j_smooth(p, x)
    hs = (0.1, 0.03, 0.01, 0.003, 0.001)
    slopes, rels = [], []
    smooth_dev = 0.0
    for _ in range(10):
        d = _smooth(p.basis, rng)
        gd = p.basis.inner(gs + eps * x, d)    # ||x|| = 1
        errs = []
        for h in hs:
            jp, _ = eval_j(p, x + h * d)
            jm, _ = eval_j(p, x - h * d)
            errs.append(abs((jp - jm) / (2.0 * h) - gd))
        slopes.append(float(np.polyfit(np.log(hs), np.log(errs), 1)[0]))
        rels.append(errs[-1] / abs(gd))
        # smooth part alone, at one step size: subtract the penalty term
        h = 0.01
        jsp = eval_j(p, x + h * d)[0] - eps * p.basis.norm(x + h * d)
        jsm = eval_j(p, x - h * d)[0] - eps * p.basis.norm(x - h * d)
        smooth_dev = max(smooth_dev, abs((jsp - jsm) / (2.0 * h)
                                         - p.basis.inner(gs, d)))
    return {"sens": sens, "slopes": slopes, "rels": rels,
            "smooth_dev": smooth_dev}


@pytest.fixture(scope="module")
def semilinear():
    cfg = default_config()
    cfg["nonlinearity"]["kind"] = "tanh"
    problem = problem_from_config(cfg)
    return problem, picard_insensitize(problem, tol=1e-10)


def test_criterion_01_weight_properties(capfd, desk_problem):
    t0 = time.perf_counter()
    ok = True
    margins = []
    for lam in (1.0, 2.0, 4.0):
        w = build_weights(desk_problem.profile, lam,
                          desk_problem.grid.t_final)
        rep = check_weight_properties(w, desk_problem.grid.times)
        ok = ok and rep.all_passed
        margins.append(min(c.margin for c in rep.checks))
    _line(capfd, 1, "weight-properties", ok,
          "all pointwise checks hold at every node for lambda 1/2/4, "
          "worst margins %s, %.1fs"
          % ("/".join("%.2e" % m for m in margins),
             time.perf_counter() - t0))


def test_criterion_02_envelope_bounds(capfd, desk_problem):
    p = desk_problem
    thr = p.weights.s_threshold
    t0 = time.perf_counter()
    envs = [check_envelope_bounds(p.weights, mult * thr, p.grid.times)
            for mult in (1.0, 2.0, 10.0)]
    tight = envs[0].tightness_gap
    peak, tmid = envs[0].tightness_location
    loc = ", ".join("%.4f" % c for c in np.atleast_1d(peak))
    ok = all(e.all_passed for e in envs) and tight <= 1e-12
    _line(capfd, 2, "envelope-bounds", ok,
          "inequalities hold at s = threshold x 1/2/10; relative gap "
          "%.2e <= 1e-12 at (x=%s, t=%.2f); informative gaps %.3f/%.3f, "
          "%.1fs" % (tight, loc, tmid, envs[1].tightness_gap,
                     envs[2].tightness_gap, time.perf_counter() - t0))


def test_criterion_03_solver_orders(capfd):
    t0 = time.perf_counter()
    # eigenmode decay: mode 2 of the plain operator at T = 0.01
    grid = build_grid(1, 2.0, 64, 0.01, 200)
    basis = grid.basis
    modes = np.zeros(basis.shape)
    modes[1] = 1.0
    u0 = basis.from_modes(modes)
    mu = math.pi ** 4
    traj = solve_forward(grid, make_schedule(grid, {}), u0)
    tnodes = np.arange(grid.n_steps + 1) * grid.dt
    decay = np.exp(-mu * tnodes)
    mid = 0.5 * (decay[:-1] + decay[1:])
    err_l2q = math.sqrt(grid.dt * basis.cell_volume
                        * float(np.sum((traj.fields - mid[:, None] * u0) ** 2)))
    c = mu * grid.dt / 2.0
    cn = ((1.0 - c) / (1.0 + c)) ** grid.n_steps
    err_cn = abs(basis.norm(traj.stateT) / basis.norm(u0) - cn)

    # manufactured solution, all lower-order roles active
    synth = {
        "a0": CoefficientField.constant("a0", 0.7),
        "b0": CoefficientField.constant("b0", [0.4]),
        "b": CoefficientField.constant("b", [[0.3]]),
        "a1": CoefficientField.constant("a1", 0.2),
    }
    steps = (32, 64, 128, 256)
    errors = [_mms_error(1, 2.0, 32, 1.0, synth, n) for n in steps]
    slope = float(np.polyfit(np.log([1.0 / n for n in steps]),
                             np.log(errors), 1)[0])
    ok = (err_l2q <= 1e-6 and err_cn <= 1e-13 and slope >= 1.9
          and all(b < a for a, b in zip(errors, errors[1:])))
    _line(capfd, 3, "solver-orders", ok,
          "mode-2 decay error %.3e <= 1e-6, terminal vs rational step map "
          "%.2e <= 1e-13, temporal order %.3f >= 1.9 over a 4-point ladder, "
          "%.1fs" % (err_l2q, err_cn, slope, time.perf_counter() - t0))


def _random_instance(rng, dim):
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
        b=CoefficientField.constant("b", rng.uniform(-0.5, 0.5, (d, d)),
                                    dim=d),
        a1=CoefficientField.constant("a1", rng.uniform(-1, 1), dim=d),
        force=force, force_onset=0.15,
    ))


def test_criterion_04_discrete_duality(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.Philox(4))
    worst = 0.0
    for i in range(50):
        p = _random_instance(rng, 1 if i % 2 == 0 else 2)
        phi0 = rng.standard_normal(p.grid.shape)
        pair = solve_adjoint_pair(p, phi0)
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        sol = solve_cascade(p, v)
        worst = max(worst, duality_residual(
            sol.y, pair.psi, v, p.force_fields, pair.phi, p.obs.values))
    _line(capfd, 4, "discrete-duality", worst <= 1e-10,
          "worst relative residual %.2e <= 1e-10 over 50 random instances "
          "(25 1D + 25 2D, all coefficient roles active), %.1fs"
          % (worst, time.perf_counter() - t0))


def test_criterion_05_gradient_correctness(capfd, probes):
    slopes, rels = probes["slopes"], probes["rels"]
    ok = (all(1.9 <= s <= 2.1 for s in slopes)
          and max(rels) <= 1e-6)
    _line(capfd, 5, "gradient-correctness", ok,
          "10 directions: log-log slopes in [%.3f, %.3f] within 2.0 +- 0.1, "
          "worst final relative error %.3e <= 1e-6, smooth-part FD deviation "
          "%.2e" % (min(slopes), max(slopes), max(rels),
                    probes["smooth_dev"]))


def test_criterion_06_gramian_symmetry(capfd, desk_problem):
    p = desk_problem
    rng = np.random.default_rng(np.random.Philox(6))
    t0 = time.perf_counter()

    def lam_map(a):
        pair = solve_adjoint_pair(p, a)
        return solve_cascade(p, p.omega.values * pair.psi.fields,
                             include_force=False).q0

    # asymmetry is held to the operator scale: sup |<La,b> - <a,Lb>| over
    # unit probes estimates ||L - L*||, the largest Rayleigh quotient
    # estimates ||L||, and their quotient is the unitless asymmetry of
    # the map itself.  Normalizing each pair by its own inner products
    # would demand sub-eps cancellation on the most smoothed probes.
    worst_abs = 0.0
    min_rq = math.inf
    max_rq = -math.inf
    for _ in range(100):
        a = _smooth(p.basis, rng)
        b = _smooth(p.basis, rng)
        la, lb = lam_map(a), lam_map(b)
        s1, s2 = p.basis.inner(la, b), p.basis.inner(a, lb)
        worst_abs = max(worst_abs, abs(s1 - s2))
        ra = p.basis.inner(a, la)
        min_rq, max_rq = min(min_rq, ra), max(max_rq, ra)
    rel = worst_abs / max_rq
    ok = rel <= 1e-10 and min_rq >= -1e-12
    _line(capfd, 6, "gramian-symmetry", ok,
          "100 unit pairs: worst asymmetry %.2e against operator scale "
          "%.2e gives %.2e <= 1e-10 relative, Rayleigh quotients in "
          "[%.2e, %.2e] with floor >= -1e-12, %.1fs"
          % (worst_abs, max_rq, rel, min_rq, max_rq,
             time.perf_counter() - t0))


def test_criterion_07_null_condition(capfd, ladder):
    eps_list = (1e-2, 1e-3, 1e-4)
    nulls = [verify_null(ladder[e]) for e in eps_list]
    q0s = [ladder[e].q0_norm for e in eps_list]
    branches = [ladder[e].branch for e in eps_list]
    ok = (all(n.passed for n in nulls)
          and all(b <= a for a, b in zip(q0s, q0s[1:]))
          and branches == ["zero", "interior", "interior"])
    _line(capfd, 7, "null-condition", ok,
          "||q(0)|| = %s nonincreasing, each <= 1.01 epsilon, branches %s"
          % ("/".join("%.4e" % q for q in q0s), "/".join(branches)))


def test_criterion_08_insensitivity(capfd, probes):
    worst_fd = max(abs(r.d_fd) for r in probes["sens"])
    worst_gap = max(r.gap_rel for r in probes["sens"])
    ok = worst_fd <= 1e-2 and worst_gap <= 1e-10
    _line(capfd, 8, "insensitivity", ok,
          "20 unit perturbations at tau = 0.3: worst |central-difference "
          "derivative| %.4e <= 10 epsilon = 1e-2, worst dual-identity gap "
          "%.2e <= 1e-10" % (worst_fd, worst_gap))


def test_criterion_09_semilinear_pipeline(capfd, desk_problem, ladder, semilinear):
    pt, sem = semilinear
    t0 = time.perf_counter()
    null = verify_null(sem.final)
    worst_ftc = max(h["ftc_residual"] for h in sem.history)

    zero = picard_insensitize(desk_problem)
    zero_ok = (zero.iterations == 1
               and np.array_equal(zero.final.v, ladder[1e-3].v))

    rng = np.random.default_rng(np.random.Philox(9))
    tau = 0.03
    bound = 10.0 * pt.epsilon + 10.0 * tau * tau
    worst_fd = 0.0
    worst_gap = 0.0
    yhats = np.array([_smooth(pt.basis, rng) for _ in range(20)])
    for rep in sentinel_sensitivity(pt, sem.final.v, yhats, tau_probe=tau):
        worst_fd = max(worst_fd, abs(rep.d_fd))
        worst_gap = max(worst_gap, rep.gap_rel)

    ok = (sem.converged and sem.iterations <= 15
          and sem.increments[-1] <= 1e-8
          and worst_ftc <= 1e-8
          and null.passed and zero_ok and worst_fd <= bound)
    _line(capfd, 9, "semilinear-pipeline", ok,
          "tanh reaction: %d iterations <= 15, final increment %.2e <= 1e-8, "
          "worst FTC residual %.2e <= 1e-8, ||q(0)|| %.4e <= 1.01 epsilon; "
          "zero reaction reproduces the linear control bitwise in 1 "
          "iteration: %s; 20 probes at tau = %.2f: worst |derivative| %.4e "
          "<= %.2e (dual gap %.2e reported, quadratic tau bias), %.1fs"
          % (sem.iterations, sem.increments[-1], worst_ftc, null.q0_norm,
             zero_ok, tau, worst_fd, bound, worst_gap,
             time.perf_counter() - t0))


def test_criterion_10_observability_ratio(capfd, desk_problem):
    t0 = time.perf_counter()
    ra = observability_ratio_sample(desk_problem, n_samples=50, seed=0,
                                    mode_cap=32)
    cfg = default_config()
    cfg["grid"]["cells"] = 96
    rb = observability_ratio_sample(problem_from_config(cfg), n_samples=50,
                                    seed=0, mode_cap=32)
    change = abs(rb.max_ratio - ra.max_ratio) / ra.max_ratio
    finite = (math.isfinite(ra.max_ratio) and math.isfinite(rb.max_ratio)
              and ra.n_degenerate == 0 and rb.n_degenerate == 0)
    ok = finite and change <= 0.20
    _line(capfd, 10, "observability-ratio", ok,
          "50 finite ratios; max %.6e -> %.6e under 64 -> 96 cells, change "
          "%.2f%% <= 20%%; empirical constant %.3e reported with no bound "
          "asserted, %.1fs" % (ra.max_ratio, rb.max_ratio, 100.0 * change,
                               ra.empirical_c, time.perf_counter() - t0))
