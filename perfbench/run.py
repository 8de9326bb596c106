"""End-to-end and per-layer benchmark of the insens4 command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and prints one result line
for each.

Each sample is one fresh interpreter (``child.py``) that imports the package
from ``src/``, builds the workload's problem once to time set-up, and then
calls ``insens4.cli.main`` once.  Samples run one at a time with a single
BLAS/OpenMP thread until the next one would pass the ``--seconds`` budget.

``--trace 0`` reports the end-to-end metrics (medians over the samples):
``run_s`` (one ``main`` call), ``setup_s`` (import plus a validated
problem) and ``peak_rss_mb`` (the sample's ``ru_maxrss``).  The two times
are corrected for the host's speed: each sample also times a fixed
reference kernel around its ``main`` call, and its times are scaled by
``REF_S`` over that reference time.  The uncorrected wall times are printed
too.  ``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics (uncorrected wall times) of the traced sample with the
median run time, plus the tracing overhead.

Every PASS/FAIL line the program prints is a check.  A sample that exits
non-zero, prints a FAIL line, misses an expected check or leaves an
inconsistent ``manifest.json`` counts all of its checks as failed and is
left out of the timings.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
RUN_LIMIT_S = 170.0  # a whole run must end well inside 180 s
# Typical duration of child.py's reference kernel on the 2-core Xeon host the
# benchmark was defined on.  Each sample's times are scaled by REF_S over its
# own reference time, which removes the host's speed drift: on that host the
# same code ran up to 1.4 times slower for minutes at a time, and the
# reference kernel slowed down with it.
REF_S = 0.15

sys.path.insert(0, str(HERE))
from tracer import LAYERS, PER_LAYER, self_time_gap  # noqa: E402

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Why each workload is here: see BENCHMARK.json.  ``checks`` are the check
# names each run must print (index suffixes stripped).
WORKLOADS = {
    "linear-lower-1d": {
        "command": "insensitize-linear",
        "ini": "[grid]\ncells = 128\nsteps = 400\n\n"
               "[coefficients]\na0 = 0.5\na1 = 0.2\n",
        "checks": {"hum-converged", "null-condition", "sentinel-derivative",
                   "duality-gap"},
    },
    "semilinear-tanh-1d": {
        "command": "insensitize-semilinear",
        "ini": "[nonlinearity]\nkind = tanh\n",
        "checks": {"picard-converged", "null-condition", "ftc-identity",
                   "inside-ball", "sentinel-derivative"},
    },
    "observability-2d": {
        "command": "observability",
        "ini": "[grid]\ndimension = 2\ncells = 64\nsteps = 200\n\n"
               "[domains]\nomega = 0.6:1.4,0.6:1.4\nobs = 1.0:1.8,1.0:1.8\n",
        "checks": {"ratios-finite"},
    },
}


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _spawn(args: list[str], cwd: Path, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a sample could start")
    try:
        return subprocess.run(
            [sys.executable, "-s", str(HERE / "child.py"), str(SRC)] + args,
            cwd=cwd, env=_child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample did not finish within {timeout:.0f} s") from None


def _last_json(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _sample(workload: dict, seed: int, traced: bool, work: Path, index: int,
            deadline: float) -> dict:
    """Run one child; returns its measurements and its check verdicts."""
    out_dir = work / f"out{index}"
    argv = [workload["command"], "--config", str(work / "workload.ini"),
            "--seed", str(seed), "--out", str(out_dir)]
    proc = _spawn(["1" if traced else "0"] + argv, work, deadline)
    result = _last_json(proc)
    checks = [line.split(None, 1) for line in proc.stdout.splitlines()
              if line.startswith(("PASS ", "FAIL "))]
    names = {name.rstrip("-0123456789") for _, name in checks}
    problems = []
    if proc.returncode != 0 or result is None:
        problems.append(f"child exited {proc.returncode}: "
                        + (proc.stderr.strip().splitlines() or ["no output"])[-1])
    elif result["rc"] != 0:
        problems.append(f"insens4 exited {result['rc']}")
    if any(verdict == "FAIL" for verdict, _ in checks):
        problems.append("FAIL: " + ", ".join(n for v, n in checks if v == "FAIL"))
    missing = workload["checks"] - names
    if missing:
        problems.append("missing checks: " + ", ".join(sorted(missing)))
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if not manifest["all_passed"] or len(manifest["checks"]) != len(checks):
            problems.append("manifest.json disagrees with the printed checks")
    except (OSError, ValueError, KeyError):
        problems.append("manifest.json missing or unreadable")
    shutil.rmtree(out_dir, ignore_errors=True)
    attempted = max(len(checks), len(workload["checks"]))
    return {"result": result, "attempted": attempted,
            "failed": attempted if problems else 0, "problems": problems}


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _machine_facts(work: Path, deadline: float) -> dict:
    proc = _spawn(["facts"], work, deadline)
    facts = _last_json(proc)
    if proc.returncode != 0 or facts is None:
        raise BenchError("cannot import insens4 from src/: "
                         + (proc.stderr.strip().splitlines() or ["no output"])[-1])
    return facts


def _collect(workload: dict, seed: int, seconds: float, trace: bool,
             work: Path, deadline: float):
    """Run samples until the next one would overrun ``seconds``.

    In traced mode samples alternate untraced, traced, untraced, ...
    Returns the passing untraced and traced results and the check tally.
    """
    plain, traced = [], []
    attempted = failed = 0
    start = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        enough = len(traced) >= 2 and len(plain) >= 1 if trace else len(plain) >= 3
        now = time.monotonic()
        if now + longest > deadline or (
                now - start + longest > seconds and (enough or failed)):
            break
        use_trace = trace and index % 2 == 1
        sample = _sample(workload, seed, use_trace, work, index, deadline)
        longest = max(longest, time.monotonic() - now)
        index += 1
        attempted += sample["attempted"]
        failed += sample["failed"]
        if sample["problems"]:
            print(f"sample {index}: " + "; ".join(sample["problems"]), file=sys.stderr)
        else:
            (traced if use_trace else plain).append(sample["result"])
    return plain, traced, attempted, failed


def _check_declaration() -> None:
    """BENCHMARK.json must declare exactly the metrics this script prints."""
    path = ROOT / "BENCHMARK.json"
    try:
        declared = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None
    reported = {"end_to_end": list(END_TO_END),
                "per_layer": [(name, unit) for name, unit, _, _ in PER_LAYER]}
    for key, metrics in reported.items():
        listed = [(m["name"], m["unit"]) for m in declared.get(key, [])]
        if listed != metrics:
            raise BenchError(f"{path.name} {key} does not match the metrics "
                             "this script reports")
    names = [w["name"] for w in declared.get("workloads", [])]
    if sorted(names) != sorted(WORKLOADS):
        raise BenchError(f"{path.name} workloads do not match this script")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[workload_name]
    if not (SRC / "insens4" / "cli.py").is_file():
        raise BenchError(f"no insens4 sources under {SRC}")
    _check_declaration()
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=workload_name + "-", dir=TMP))
    try:
        (work / "workload.ini").write_text(workload["ini"], encoding="utf-8")
        facts = _machine_facts(work, deadline)
        print("machine: " + json.dumps(facts, sort_keys=True))
        plain, traced, attempted, failed = _collect(
            workload, seed, seconds, trace, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run is using it

    if trace:
        metrics, errors = _layer_metrics(plain, traced)
    else:
        metrics, errors = _end_to_end_metrics(plain)
    share = failed / attempted if attempted else 1.0
    print(f"{'checks_failed':34s} {_fmt(share):>12s} {'ratio':14s} "
          f"n={attempted} ({failed} of {attempted} checks failed)")
    for err in errors:
        print("benchmark self-check failed: " + err, file=sys.stderr)
    return {"correct": failed == 0 and attempted > 0 and not errors,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _corrected(sample: dict) -> dict:
    """The sample's end-to-end values, times scaled to the reference speed."""
    speed = REF_S / sample["ref_s"]
    return {"run_s": sample["run_s"] * speed, "setup_s": sample["setup_s"] * speed,
            "peak_rss_mb": sample["peak_rss_mb"]}


def _print_row(name: str, unit: str, values: list[float]) -> float:
    med, q1, q3 = _stats(values)
    print(f"{name:34s} {_fmt(med):>12s} {unit:14s} n={len(values)} "
          f"q1={_fmt(q1)} q3={_fmt(q3)} samples={' '.join(_fmt(v) for v in values)}")
    return med


def _end_to_end_metrics(plain: list[dict]) -> tuple[dict, list[str]]:
    if not plain:
        return {name: {"value": None, "unit": unit} for name, unit in END_TO_END}, \
            ["no passing samples"]
    corrected = [_corrected(r) for r in plain]
    metrics = {name: {"value": _print_row(name, unit, [c[name] for c in corrected]),
                      "unit": unit}
               for name, unit in END_TO_END}
    for name in ("run_s", "setup_s", "ref_s"):
        _print_row(f"(wall {name})", "s", [r[name] for r in plain])
    return metrics, []


def _layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values of the median traced sample, plus self-checks."""
    errors = []
    if not traced or not plain:
        return {name: {"value": None, "unit": unit} for name, unit, _, _ in PER_LAYER}, \
            ["no passing traced or untraced samples"]
    traced = sorted(traced, key=lambda r: r["run_s"])
    chosen = traced[(len(traced) - 1) // 2]
    layers = dict(chosen["layers"])
    untraced_s = statistics.median(_corrected(r)["run_s"] for r in plain)
    layers["trace.overhead_ratio"] = \
        statistics.median(_corrected(r)["run_s"] for r in traced) / untraced_s
    wrapped = {tuple(pair) for pair in chosen["wrapped"]}

    for name, unit, exact, _ in PER_LAYER:
        if exact:
            seen = {r["layers"][name] for r in traced}
            if len(seen) > 1:
                errors.append(f"work count {name} changed between identical "
                              f"runs: {sorted(seen)}")
    gap = self_time_gap(layers)
    if abs(gap) > 1e-6 * max(layers["trace.run_s"], 1.0):
        errors.append(f"layer self times miss the traced run time by {gap:.3g} s")

    metrics = {}
    for name, unit, _, needs in PER_LAYER:
        absent = [f"{layer}.{fn}" for layer, fn in needs if (layer, fn) not in wrapped]
        value = layers[name]
        if absent:
            print(f"warning: {name} needs {', '.join(absent)}, which the package "
                  "no longer has; reporting null", file=sys.stderr)
            value = None
        metrics[name] = {"value": value, "unit": unit}
        values = [r["layers"][name] for r in traced] if name != "trace.overhead_ratio" \
            else [layers[name]]
        spread = "" if len(set(values)) <= 1 else \
            f" min={_fmt(min(values))} max={_fmt(max(values))}"
        print(f"{name:34s} {_fmt(value):>12s} {unit:14s} n={len(traced)}{spread}")
    print(f"{'(untraced run_s, corrected)':34s} {_fmt(untraced_s):>12s} {'s':14s} "
          f"n={len(plain)}")
    print(f"{'(traced run_s minus self times)':34s} {gap:>12.3g} {'s':14s} "
          f"layers: {', '.join(LAYERS)}")
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
