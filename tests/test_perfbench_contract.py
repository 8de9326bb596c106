"""The package keeps every name the benchmark's tracer reads.

``perfbench/tracer.py`` wraps the public functions (``__all__``) of each
module and reads fields of what some of them return.  A name that goes
missing does not fail the benchmark run: the per-layer metrics that need
it print ``null`` and ``run.py`` still exits 0, and a field that goes
missing crashes only the traced sample.  So each benchmark command runs
here, at ``--quick`` size, through the unchanged ``perfbench/child.py``
in traced mode, as ``run.py`` runs it.
"""
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# run.py puts perfbench/ on sys.path and takes PER_LAYER from tracer.py
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_quick_run_reports_every_layer(workload, tmp_path):
    spec = run.WORKLOADS[workload]
    ini = tmp_path / "workload.ini"
    ini.write_text(spec["ini"], encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-s", str(BENCH / "child.py"), str(ROOT / "src"), "1",
         spec["command"], "--config", str(ini), "--seed", "777",
         "--out", str(tmp_path / "out"), "--quick"],
        cwd=tmp_path, env=run._child_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    # the caller fills in the overhead ratio from untraced samples
    absent = {name for name, value in result["layers"].items()
              if name != "trace.overhead_ratio"
              and not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert not absent
    wrapped = {tuple(pair) for pair in result["wrapped"]}
    needed = {fn for _, _, _, needs in run.PER_LAYER for fn in needs}
    assert needed <= wrapped, sorted(needed - wrapped)
