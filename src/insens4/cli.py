"""Configuration-driven command line for the insensitizing-control pipeline.

Subcommands
-----------
weights-check           weight admissibility checks and observability constants
observability           adjoint observability ratio sampling
insensitize-linear      penalized-HUM control for the linear cascade
insensitize-semilinear  Picard loop around the frozen linear solver
convergence             manufactured-solution temporal order study
selftest                cross-module invariant battery

Exit codes: 0 when every asserted check passes, 1 on usage or
configuration errors, 2 when a check fails or the computation stops on a
coded error.  Each run writes CSV tables and field dumps into the output
directory and finishes with manifest.json enumerating them.  A coded error
raised once the output directory exists still writes the manifest, with an
``error`` entry (code, message, context), so a manifest without ``error``
marks a complete run.  All randomness flows from the single [run] seed
through a counter-based Philox generator.
"""

from __future__ import annotations

import argparse
import copy
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .carleman_weights import check_envelope_bounds, check_weight_properties
from .cascade_sentinel import (
    acting_control,
    sentinel_sensitivity,
    solve_adjoint_pair,
    solve_cascade,
)
from .config import (
    apply_quick,
    check_seed,
    coefficients_from_config,
    parse_config,
    problem_from_config,
)
from .errors import Insens4Error, IterationError, SetupError, WeightError
from .hum_synthesis import (
    minimize_exact,
    minimize_quadratic,
    observability_ratio_sample,
    verify_null,
)
from .nonlinearity import make_nonlinearity
from .pde_engine import (
    SpatialOperator,
    Trajectory,
    duality_residual,
    make_schedule,
    solve_forward,
)
from .problem_setup import CoefficientField, build_grid
from .reporting import (
    FIELD_MAGIC,
    RunManifest,
    format_cell,
    read_field_dump,
    write_csv,
    write_field_dump,
    write_manifest,
)
from .semilinear_loop import ftc_residual, picard_insensitize

__all__ = ["main", "build_parser"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(seed))


# Mode decay exponent of the random unit fields: smooth enough that probes
# stay resolved.
SMOOTH_DECAY = 1.5


def _smooth_unit(basis, rng: np.random.Generator) -> np.ndarray:
    """Random unit field with power-law mode decay, so probes stay resolved.

    Its modes are normal draws times positive weights, so it is zero only
    if every draw is exactly 0.0.
    """
    u = basis.random_smooth(rng, SMOOTH_DECAY)
    return u / basis.norm(u)


def _apply_threads(n: int) -> bool:
    """Best-effort BLAS/FFT pool cap; 0 leaves the libraries alone."""
    if n <= 0:
        return False
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return False
    threadpool_limits(limits=int(n))
    return True


def _log_rows(log: list[dict]) -> list[tuple]:
    """Flatten heterogeneous minimizer log entries into uniform CSV rows."""
    known = ("phase", "iteration", "dimension", "residual", "prox_norm",
             "norm_b", "rho", "objective")
    rows = []
    for entry in log:
        phase = entry.get("phase", "")
        step = entry.get("iteration", entry.get("dimension", 0))
        value = entry.get("residual",
                          entry.get("prox_norm",
                                    entry.get("norm_b", entry.get("rho", 0.0))))
        objective = entry.get("objective", "")
        extra = {k: v for k, v in entry.items() if k not in known}
        detail = ";".join(f"{k}={format_cell(v)}" for k, v in sorted(extra.items()))
        rows.append((phase, step, value, objective, detail))
    return rows


def _csv(manifest: RunManifest, out_dir: Path, name: str, header, rows) -> Path:
    path = write_csv(out_dir / name, header, rows)
    manifest.add_output(path)
    return path


def _dump(manifest: RunManifest, out_dir: Path, name: str, fields, problem) -> None:
    path = write_field_dump(out_dir / name, fields, problem.grid.dim,
                            problem.grid.n_cells)
    manifest.add_output(path)


# ---------------------------------------------------------------------------
# weights-check


def _cmd_weights_check(cfg: dict, out_dir: Path, manifest: RunManifest,
                       quick: bool) -> None:
    header = ("check", "passed", "margin", "detail")
    try:
        problem = problem_from_config(cfg)
    except WeightError as exc:
        if exc.code != "s-below-threshold":
            raise
        # surface the admissibility threshold instead of dying on it
        thr = float(exc.context.get("threshold", math.nan))
        s_req = exc.context["s"]
        detail = (f"s = {format_cell(s_req)} is below the admissibility "
                  f"threshold 4*T/|M0| = {format_cell(thr)}")
        _csv(manifest, out_dir, "weights_checks.csv", header,
             [("s-admissible", False, s_req - thr, detail)])
        manifest.add_check("s-admissible", False, s=s_req, threshold=thr)
        print(f"insens4 weights-check: {detail}", file=sys.stderr)
        return

    c = problem.constants
    times = problem.grid.times
    props = check_weight_properties(problem.weights, times)
    env = check_envelope_bounds(problem.weights, c.s, times)
    rows = []
    for chk in props.checks + env.checks:
        rows.append((chk.name, chk.passed, chk.margin, chk.detail))
        manifest.add_check(chk.name, chk.passed, margin=chk.margin)
    where = ";".join(format_cell(x) for x in env.tightness_location)
    note = "gap at (" + where + ")"
    if not env.at_threshold:
        note += "; s above threshold, probe informative only"
    rows.append(("envelope-tightness", env.tight, env.tightness_gap, note))
    manifest.add_check("envelope-tightness", env.tight, gap=env.tightness_gap)
    _csv(manifest, out_dir, "weights_checks.csv", header, rows)

    const_header = ("s", "s_threshold", "lambda", "beta", "rate_m", "cost_h",
                    "c_proxy", "term_sup", "term_window", "overflowed")
    const_row = (c.s, c.s_threshold, c.lam, c.beta, c.rate_m, c.cost_h,
                 c.c_proxy, c.term_sup, c.term_window, c.overflowed)
    _csv(manifest, out_dir, "observability_constants.csv", const_header,
         [const_row])


# ---------------------------------------------------------------------------
# observability


def _cmd_observability(cfg: dict, out_dir: Path, manifest: RunManifest,
                       quick: bool) -> None:
    with manifest.timed("build"):
        problem = problem_from_config(cfg)
    with manifest.timed("sampling"):
        report = observability_ratio_sample(
            problem, n_samples=cfg["sampling"]["samples"],
            seed=cfg["run"]["seed"],
            mode_cap=cfg["sampling"]["mode_cap"] or None)

    header = ("index", "decay", "ratio", "status")
    _csv(manifest, out_dir, "ratio_samples.csv", header,
         [[s[k] for k in header] for s in report.samples])
    header = ("n_samples", "n_degenerate", "mode_cap", "seed", "rate_m",
              "h_value", "max_ratio", "median_ratio", "empirical_c")
    _csv(manifest, out_dir, "ratio_summary.csv", header,
         [[getattr(report, k) for k in header]])

    # a draw with non-finite energies fails the check, whatever the others
    valid = report.n_samples - report.n_degenerate - report.n_nonfinite
    finite = valid > 0 and report.n_nonfinite == 0
    manifest.add_check("ratios-finite", finite, n_valid=valid,
                       n_nonfinite=report.n_nonfinite,
                       max_ratio=report.max_ratio)
    # no hard bound on the unknown constant: the ratio is reported, not
    # asserted against h_value


# ---------------------------------------------------------------------------
# control synthesis


def _sensitivity_block(problem, result, cfg, manifest, out_dir,
                       bound: float, assert_gap: bool, base=None) -> None:
    gap_tol = cfg["sampling"]["gap_tol"]
    rng = _rng(cfg["run"]["seed"])
    yhats = np.empty((cfg["sampling"]["directions"],) + problem.basis.shape)
    for yhat in yhats:
        yhat[...] = _smooth_unit(problem.basis, rng)
    with manifest.timed("sensitivity"):
        reports = sentinel_sensitivity(problem, result.v, yhats,
                                       tau_probe=cfg["sampling"]["tau_probe"],
                                       base=base)
    for i, rep in enumerate(reports):
        manifest.add_check(f"sentinel-derivative-{i}",
                           abs(rep.d_fd) <= bound, d_fd=rep.d_fd, bound=bound)
        if assert_gap:
            manifest.add_check(f"duality-gap-{i}", rep.gap_rel <= gap_tol,
                               gap_rel=rep.gap_rel, tol=gap_tol)
    header = ("direction", "tau", "d_fd", "d_fd_half", "d_dual", "gap",
              "gap_rel", "q0_norm")
    _csv(manifest, out_dir, "sensitivity.csv", header,
         [[i] + [getattr(rep, k) for k in header[1:]]
          for i, rep in enumerate(reports)])


def _cmd_insensitize_linear(cfg: dict, out_dir: Path, manifest: RunManifest,
                            quick: bool) -> None:
    if cfg["nonlinearity"]["kind"] != "zero":
        raise SetupError(
            "config-value",
            "insensitize-linear requires [nonlinearity] kind = zero; use "
            "insensitize-semilinear when a reaction term is configured")
    with manifest.timed("build"):
        problem = problem_from_config(cfg)
    penalty = cfg["penalty"]
    with manifest.timed("minimize"):
        if penalty["variant"] == "exact":
            result = minimize_exact(problem, tol=penalty["tol"])
        else:
            result = minimize_quadratic(problem, tol=penalty["tol"],
                                        max_iter=penalty["max_iter"])
    null = verify_null(result)

    manifest.add_check("hum-converged", result.converged,
                       iterations=result.iterations,
                       operator_applies=result.operator_applies)
    manifest.add_check("null-condition", null.passed, q0_norm=null.q0_norm,
                       epsilon=problem.epsilon)

    _csv(manifest, out_dir, "hum_convergence.csv",
         ("phase", "step", "value", "objective", "detail"),
         _log_rows(result.convergence_log))
    header = ("variant", "epsilon", "branch", "converged", "iterations",
              "operator_applies", "q0_norm", "v_norm", "bound_value",
              "bound_within", "optimality_residual", "objective")
    summary = vars(result) | {"epsilon": problem.epsilon,
                              "bound_within": null.bound_within}
    _csv(manifest, out_dir, "control_summary.csv", header,
         [[summary[k] for k in header]])

    _sensitivity_block(problem, result, cfg, manifest, out_dir,
                       bound=10.0 * problem.epsilon, assert_gap=True,
                       base=result.ops.state_schedule)
    _dump(manifest, out_dir, "control_v.fld", result.v, problem)
    _dump(manifest, out_dir, "costate_q0.fld", result.q.state0, problem)
    _dump(manifest, out_dir, "seed_phi0.fld", result.phi0, problem)


_PICARD_HEADER = ("iteration", "increment", "z_norm", "q0_norm", "v_norm",
                  "hum_converged", "certificate", "note")


def _picard_row(h: dict) -> list:
    return [h.get(k, "") for k in _PICARD_HEADER]


def _cmd_insensitize_semilinear(cfg: dict, out_dir: Path,
                                manifest: RunManifest, quick: bool) -> None:
    with manifest.timed("build"):
        problem = problem_from_config(cfg)
    try:
        with manifest.timed("picard"):
            sem = picard_insensitize(problem, tol=cfg["picard"]["tol"],
                                     max_iter=cfg["picard"]["max_iter"],
                                     hum_tol=cfg["penalty"]["tol"])
    except IterationError as exc:
        # honest failure: keep the iterate history on disk
        _csv(manifest, out_dir, "picard_history.csv", _PICARD_HEADER,
             [_picard_row(h) for h in exc.context.get("history", [])])
        manifest.add_check("picard-converged", False, code=exc.code)
        print(f"insens4 insensitize-semilinear: {exc}", file=sys.stderr)
        return

    result = sem.final
    null = verify_null(result)
    # the final linearization is not marched again: free its step factors
    # before the probes build their own
    sem.frozen.ops.release_factors()
    ftc = sem.history[-1]["ftc_residual"]
    # picard_insensitize returns only a converged loop
    manifest.add_check("picard-converged", True, iterations=sem.iterations,
                       increment=sem.increments[-1])
    manifest.add_check("null-condition", null.passed, q0_norm=null.q0_norm,
                       epsilon=problem.epsilon)
    manifest.add_check("ftc-identity", ftc <= 1e-8, residual=ftc)
    manifest.add_check("inside-ball", sem.inside_ball, r1=sem.r1_radius)

    _csv(manifest, out_dir, "picard_history.csv", _PICARD_HEADER,
         [_picard_row(h) for h in sem.history])
    contraction = sem.contraction_factors[-1] if sem.contraction_factors else ""
    summary_header = ("converged", "iterations", "epsilon", "q0_norm",
                      "v_norm", "increment_last", "contraction_last",
                      "r1_radius", "inside_ball", "weighted_force_norm",
                      "ftc_residual", "objective")
    summary = (True, sem.iterations, problem.epsilon, result.q0_norm,
               result.v_norm, sem.increments[-1], contraction, sem.r1_radius,
               sem.inside_ball, math.sqrt(problem.force_weight_integral), ftc,
               result.objective)
    _csv(manifest, out_dir, "control_summary.csv", summary_header, [summary])

    tau = cfg["sampling"]["tau_probe"]
    _sensitivity_block(problem, result, cfg, manifest, out_dir,
                       bound=10.0 * problem.epsilon + 10.0 * tau * tau,
                       assert_gap=False)
    _dump(manifest, out_dir, "control_v.fld", result.v, problem)
    _dump(manifest, out_dir, "costate_q0.fld", result.q.state0, problem)
    _dump(manifest, out_dir, "state_y.fld", result.y.fields, problem)


# ---------------------------------------------------------------------------
# convergence


def _mms_error(dim: int, extent: float, cells: int, t_final: float,
               coeffs: dict, n_steps: int) -> float:
    """Terminal-state error of the marched manufactured solution.

    The exact solution g(t) P(x) uses the discrete operator itself in the
    source, so the semi-discrete problem is solved exactly and the error
    isolates the time discretization.
    """
    grid = build_grid(dim, extent, cells, t_final, n_steps)
    basis = grid.basis
    seed_modes = np.zeros(basis.shape)
    seed_modes[(0,) * dim] = 1.0
    p = basis.from_modes(seed_modes)
    schedule = make_schedule(grid, coeffs)
    ap = SpatialOperator(basis, schedule.nodes[0]).apply(p)

    def g(t: float) -> float:
        return math.exp(-t) * (1.0 + 0.5 * math.sin(3.0 * t))

    def gp(t: float) -> float:
        return math.exp(-t) * (1.5 * math.cos(3.0 * t)
                               - 1.0 - 0.5 * math.sin(3.0 * t))

    source = np.empty((n_steps,) + basis.shape)
    for j, t in enumerate(grid.times):
        source[j] = gp(t) * p + g(t) * ap
    traj = solve_forward(grid, schedule, g(0.0) * p, source)
    return basis.norm(traj.stateT - g(t_final) * p)


def _cmd_convergence(cfg: dict, out_dir: Path, manifest: RunManifest,
                     quick: bool) -> None:
    # the study reads only the grid and coefficients, but a configuration
    # that fails validation is an error here too
    problem_from_config(cfg)
    g = cfg["grid"]
    dim, extent, cells, t_final = (g["dimension"], g["extent"], g["cells"],
                                   g["t_final"])
    coeffs = coefficients_from_config(cfg, dim)
    ladder = (24, 48, 96) if quick else (32, 64, 128, 256)

    rows = []
    errors = []
    for k, n_steps in enumerate(ladder):
        err = _mms_error(dim, extent, cells, t_final, coeffs, n_steps)
        order = ""
        if k:
            order = (math.log(errors[-1] / err)
                     / math.log(n_steps / ladder[k - 1]))
        rows.append((n_steps, t_final / n_steps, err, order))
        errors.append(err)
    dts = np.log([t_final / n for n in ladder])
    slope = float(np.polyfit(dts, np.log(errors), 1)[0])
    _csv(manifest, out_dir, "time_order.csv",
         ("steps", "dt", "error", "observed_order"), rows)
    manifest.add_check("time-order", slope >= 1.9, slope=slope)
    manifest.add_check("errors-decreasing",
                       all(b < a for a, b in zip(errors, errors[1:])),
                       errors=errors)


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(cfg: dict, out_dir: Path, manifest: RunManifest,
                  quick: bool) -> None:
    rng = _rng(cfg["run"]["seed"])
    rows = []

    def record(name: str, passed: bool, value: float, detail: str = "") -> None:
        rows.append((name, passed, value, detail))
        manifest.add_check(name, passed, value=value)

    problem = problem_from_config(cfg)
    grid = problem.grid
    basis = problem.basis
    dim = grid.dim

    props = check_weight_properties(problem.weights, grid.times)
    worst = min(c.margin for c in props.checks)
    record("weight-properties", props.all_passed, worst, "worst margin")

    env = check_envelope_bounds(problem.weights, problem.constants.s,
                                grid.times)
    record("envelope-bounds", env.all_passed,
           min(c.margin for c in env.checks), "worst margin")
    record("envelope-tightness", env.tight, env.tightness_gap,
           "relative gap at the probe point")

    synth = {
        "a0": CoefficientField.constant("a0", 0.7, dim),
        "b0": CoefficientField.constant("b0", np.full(dim, 0.4), dim),
        "b": CoefficientField.constant("b", np.full((dim, dim), 0.3), dim),
        "a1": CoefficientField.constant("a1", 0.2, dim),
    }
    op = SpatialOperator(basis, make_schedule(grid, synth).nodes[0])
    u = rng.standard_normal(basis.shape)
    w = rng.standard_normal(basis.shape)
    au = op.apply(u)
    gap = abs(basis.inner(au, w) - basis.inner(u, op.apply_transpose(w)))
    scale = basis.norm(au) * basis.norm(w) + 1.0
    record("transpose-exact", gap <= 1e-11 * scale, gap / scale,
           "all four lower-order roles active")

    phi0 = _smooth_unit(basis, rng)
    pair = solve_adjoint_pair(problem, phi0)
    v = problem.omega.values * rng.standard_normal((grid.n_steps,) + basis.shape)
    casc = solve_cascade(problem, v)
    res = duality_residual(casc.y, pair.psi, v, problem.force_fields,
                           pair.phi, problem.obs.values)
    record("duality-identity", res <= 1e-10, res, "relative residual")

    mms_cells = min(cfg["grid"]["cells"], 32)
    e_coarse = _mms_error(dim, cfg["grid"]["extent"], mms_cells,
                          cfg["grid"]["t_final"], coefficients_from_config(cfg, dim), 24)
    e_fine = _mms_error(dim, cfg["grid"]["extent"], mms_cells,
                        cfg["grid"]["t_final"], coefficients_from_config(cfg, dim), 48)
    ratio = e_coarse / e_fine if e_fine > 0 else math.inf
    record("time-order-ratio", ratio >= 3.4, ratio,
           "error contraction under step halving")

    small_cfg = apply_quick(cfg)
    small = problem_from_config(small_cfg)

    def lam(a: np.ndarray) -> np.ndarray:
        v = acting_control(small, solve_adjoint_pair(small, a))
        return solve_cascade(small, v, include_force=False).q.state0

    a = _smooth_unit(small.basis, rng)
    b = _smooth_unit(small.basis, rng)
    la, lb = lam(a), lam(b)
    s1 = small.basis.inner(la, b)
    s2 = small.basis.inner(a, lb)
    sym = abs(s1 - s2) / (abs(s1) + abs(s2) + 1e-300)
    record("hum-symmetry", sym <= 1e-10, sym, "relative asymmetry")
    rq = small.basis.inner(a, la)
    record("hum-psd", rq >= -1e-12, rq, "Rayleigh quotient")

    ctrl = minimize_exact(small, tol=cfg["penalty"]["tol"])
    null = verify_null(ctrl)
    record("exact-norm-null", null.passed, null.q0_norm,
           f"epsilon={format_cell(small.epsilon)}")

    nl = make_nonlinearity("tanh", 0.5, dim=dim)
    seed_modes = np.zeros(small.basis.shape)
    seed_modes[(0,) * dim] = 1.0
    u1 = small.basis.from_modes(seed_modes)
    seed_modes[(0,) * dim] = 0.0
    seed_modes[(1,) * dim] = 1.0
    u2 = small.basis.from_modes(seed_modes)
    zf = np.empty((small.grid.n_steps,) + small.basis.shape)
    for j, t in enumerate(small.grid.times):
        zf[j] = 1.5 * math.sin(2.0 * math.pi * t) * u1 \
            + 0.3 * math.cos(3.0 * t) * u2
    z = Trajectory(small.basis, small.grid.dt, zf, 0.0 * zf[0], 0.0 * zf[-1])
    ftc = ftc_residual(nl, z)
    record("ftc-identity", ftc <= 1e-9, ftc, "secant stack defect, tanh")

    zero_cfg = copy.deepcopy(small_cfg)
    zero_cfg["nonlinearity"]["kind"] = "zero"
    sem = picard_insensitize(problem_from_config(zero_cfg), max_iter=5,
                             hum_tol=cfg["penalty"]["tol"])
    record("picard-stationary", sem.iterations == 1,
           sem.iterations, "zero reaction fixes the map after one solve")

    fld = out_dir / "selftest_field.fld"
    write_field_dump(fld, ctrl.q.state0, small.grid.dim, small.grid.n_cells)
    manifest.add_output(fld)
    dim_r, n_r, fields_r = read_field_dump(fld)
    raw = fld.read_bytes()
    head = struct.unpack("<8sIIIIQ", raw[:32])
    header_ok = (head == (FIELD_MAGIC, small.grid.dim, small.grid.n_cells, 1,
                          0, fields_r.nbytes))
    round_ok = (dim_r == small.grid.dim and n_r == small.grid.n_cells
                and np.array_equal(fields_r[0], ctrl.q.state0))
    record("field-dump-roundtrip", header_ok and round_ok, len(raw),
           "bit-exact header and payload")

    det_rows = [(k, math.sin(1.0 + k) * 10.0 ** (3 - 2 * k), k % 2 == 0)
                for k in range(6)]
    pa = _csv(manifest, out_dir, "selftest_det_a.csv", ("k", "x", "even"),
              det_rows)
    pb = _csv(manifest, out_dir, "selftest_det_b.csv", ("k", "x", "even"),
              det_rows)
    record("csv-determinism", pa.read_bytes() == pb.read_bytes(),
           pa.stat().st_size, "identical rows, identical bytes")

    _csv(manifest, out_dir, "selftest.csv",
         ("check", "passed", "value", "detail"), rows)


# ---------------------------------------------------------------------------
# dispatch


_COMMANDS = (
    ("weights-check", _cmd_weights_check,
     "verify weight admissibility and emit the observability constants"),
    ("observability", _cmd_observability,
     "sample adjoint observability ratios over random seed data"),
    ("insensitize-linear", _cmd_insensitize_linear,
     "synthesize and verify an insensitizing control, linear dynamics"),
    ("insensitize-semilinear", _cmd_insensitize_semilinear,
     "Picard iteration to an insensitizing control for the reaction case"),
    ("convergence", _cmd_convergence,
     "manufactured-solution temporal order study"),
    ("selftest", _cmd_selftest,
     "run the cross-module invariant battery"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insens4",
        description="insensitizing controls for fourth-order parabolic "
                    "problems: weight checks, observability sampling, "
                    "penalized-HUM synthesis, and verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="key = value configuration file")
    common.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the [run] seed")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="artifact directory (default from [run] out)")
    common.add_argument("--quick", action="store_true",
                        help="shrink grids and sample counts for a fast pass")
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="cap BLAS/FFT thread pools (0 = leave alone)")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for name, _, doc in _COMMANDS:
        sub.add_parser(name, parents=[common], help=doc, description=doc)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for failed checks
        code = 0 if exc.code is None else exc.code
        return 1 if code == 2 else int(code)
    command = args.command
    manifest = None
    try:
        cfg = parse_config(args.config)
        if args.quick:
            cfg = apply_quick(cfg)
        if args.seed is not None:
            cfg["run"]["seed"] = check_seed(args.seed, "--seed")
        if args.out is not None:
            cfg["run"]["out"] = args.out
        if args.threads is not None:
            cfg["run"]["threads"] = args.threads
        cfg["run"]["threads_applied"] = _apply_threads(cfg["run"]["threads"])
        out_dir = Path(cfg["run"]["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(command, cfg["run"]["seed"], cfg)
        handler = {name: fn for name, fn, _ in _COMMANDS}[command]
        with manifest.timed("total"):
            handler(cfg, out_dir, manifest, bool(args.quick))
    except Insens4Error as exc:
        if manifest is not None:
            # the run stopped after it began: leave what it knew
            manifest.error = {"code": exc.code, "message": exc.message,
                              "context": exc.context}
            write_manifest(out_dir / "manifest.json", manifest)
        print(f"insens4 {command}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SetupError) else 2
    write_manifest(out_dir / "manifest.json", manifest)
    for chk in manifest.checks:
        print(("PASS" if chk["passed"] else "FAIL") + f" {chk['name']}")
    ok = manifest.all_passed
    print(f"{command}: {'ok' if ok else 'FAILED'} (artifacts in {out_dir})")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
