"""End-to-end command line runs through the in-process entry point."""
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from insens4.cli import _COMMANDS, main
from insens4.config import SCHEMA
from insens4.reporting import FIELD_MAGIC, format_cell


def _ini(tmp_path, text, name="cli.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _lower_order_ini(dim, a1):
    """Config text with the given a1 and b0 = 1 on every axis; in 2D on
    the observability-2d boxes."""
    if dim == 1:
        return f"[coefficients]\na1 = {a1}\nb0 = 1\n"
    return ("[grid]\ndimension = 2\n[domains]\nomega = 0.6:1.4,0.6:1.4\n"
            f"obs = 1.0:1.8,1.0:1.8\n[coefficients]\na1 = {a1}\nb0 = 1,1\n")


@pytest.fixture(scope="module")
def linear_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("linear_out")
    code = main(["insensitize-linear", "--quick", "--out", str(out)])
    return code, out


class TestSubcommandsPass:
    @pytest.mark.parametrize("command", [
        "weights-check", "observability", "convergence", "selftest",
    ])
    def test_quick_run_green(self, tmp_path, command):
        assert main([command, "--quick", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.json").is_file()

    def test_linear_green(self, linear_run):
        code, out = linear_run
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["all_passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {"hum-converged", "null-condition"} <= names

    def test_semilinear_green(self, tmp_path):
        cfg = _ini(tmp_path, "[nonlinearity]\nkind = tanh\nscale = 0.1\n")
        out = tmp_path / "out"
        assert main(["insensitize-semilinear", "--quick", "--config", cfg,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["picard-converged"]["passed"]
        assert by_name["picard-converged"]["iterations"] >= 2
        assert by_name["ftc-identity"]["passed"]
        assert (out / "state_y.fld").is_file()

    def test_semilinear_loose_tol_keeps_ftc_identity(self, tmp_path):
        # the identity pairs each iterate with its own linearization, so a
        # loose Picard tolerance does not show up as a secant defect
        cfg = _ini(tmp_path, "[nonlinearity]\nkind = tanh\n"
                             "[picard]\ntol = 1e-4\n")
        out = tmp_path / "out"
        assert main(["insensitize-semilinear", "--quick", "--config", cfg,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        ftc = {c["name"]: c for c in doc["checks"]}["ftc-identity"]
        assert ftc["passed"]
        assert ftc["residual"] <= 1e-12

    def test_pass_lines_printed(self, tmp_path, capsys):
        assert main(["weights-check", "--quick", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("PASS ") for l in lines)
        assert not any(l.startswith("FAIL ") for l in lines)
        assert lines[-1].startswith("weights-check: ok")


class TestArtifacts:
    def test_manifest_enumerates_everything(self, linear_run):
        code, out = linear_run
        doc = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        listed = {o["path"] for o in doc["outputs"]}
        assert listed == on_disk
        for entry in doc["outputs"]:
            assert (out / entry["path"]).stat().st_size == entry["bytes"]

    def test_expected_artifact_names(self, linear_run):
        _, out = linear_run
        names = {p.name for p in out.iterdir()}
        assert names == {"manifest.json", "hum_convergence.csv",
                         "control_summary.csv", "sensitivity.csv",
                         "control_v.fld", "costate_q0.fld", "seed_phi0.fld"}

    def test_control_dump_header(self, linear_run):
        _, out = linear_run
        raw = (out / "control_v.fld").read_bytes()
        magic, dim, n_cells, nt, pad, length = struct.unpack("<8sIIIIQ",
                                                             raw[:32])
        # quick caps: 32 cells (31 nodes), 64 steps
        assert magic == FIELD_MAGIC
        assert (dim, n_cells, nt, pad) == (1, 32, 64, 0)
        assert length == 64 * 31 * 8 == len(raw) - 32

    def test_static_dump_single_record(self, linear_run):
        _, out = linear_run
        raw = (out / "costate_q0.fld").read_bytes()
        assert struct.unpack("<8sIIIIQ", raw[:32])[3] == 1

    def test_summary_csv_parses(self, linear_run):
        _, out = linear_run
        header, row = (out / "control_summary.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["variant"] == "exact"
        assert cells["converged"] == "true"
        assert float(cells["q0_norm"]) <= 1.01 * float(cells["epsilon"])


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["observability", "--quick", "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append(out)
        for csv in ("ratio_samples.csv", "ratio_summary.csv"):
            assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()

    def test_seed_changes_samples(self, tmp_path):
        payloads = []
        for seed in ("5", "6"):
            out = tmp_path / seed
            assert main(["observability", "--quick", "--seed", seed,
                         "--out", str(out)]) == 0
            payloads.append((out / "ratio_samples.csv").read_bytes())
        assert payloads[0] != payloads[1]

    def test_seed_recorded(self, tmp_path):
        assert main(["observability", "--quick", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["seed"] == 7
        rows = (tmp_path / "ratio_samples.csv").read_text().splitlines()
        assert len(rows) - 1 == doc["config"]["sampling"]["samples"] == 8


class TestFailureModes:
    def test_inadmissible_s_exits_2(self, tmp_path, capsys):
        cfg = _ini(tmp_path, "[weights]\ns = 1e-9\n")
        out = tmp_path / "out"
        assert main(["weights-check", "--quick", "--config", cfg,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "below the admissibility threshold" in err
        doc = json.loads((out / "manifest.json").read_text())
        chk = doc["checks"][0]
        assert chk["name"] == "s-admissible" and not chk["passed"]
        assert 0.0 < chk["threshold"] and chk["s"] == 1e-9
        table = (out / "weights_checks.csv").read_text()
        assert "s-admissible,false" in table

    def test_inadmissible_s_factor_reports_the_s_it_rejected(self, tmp_path,
                                                            capsys):
        # s = 0 takes threshold * s_factor, and that is the s rejected
        cfg = _ini(tmp_path, "[weights]\ns_factor = 0.5\n")
        out = tmp_path / "out"
        assert main(["weights-check", "--quick", "--config", cfg,
                     "--out", str(out)]) == 2
        chk = json.loads((out / "manifest.json").read_text())["checks"][0]
        thr = chk["threshold"]
        assert chk["name"] == "s-admissible" and chk["s"] == 0.5 * thr > 0.0
        err = capsys.readouterr().err
        assert f"s = {format_cell(0.5 * thr)} is below the admissibility" in err
        row = (out / "weights_checks.csv").read_text().splitlines()[1]
        name, passed, margin, _ = row.split(",")
        assert (name, passed) == ("s-admissible", "false")
        assert float(margin) == -0.5 * thr

    def test_reaction_rejected_by_linear_command(self, tmp_path, capsys):
        cfg = _ini(tmp_path, "[nonlinearity]\nkind = tanh\n")
        assert main(["insensitize-linear", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "insensitize-semilinear" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["insensitize-linear",
                                         "insensitize-semilinear"])
    def test_unknown_variant_exits_1(self, tmp_path, capsys, command):
        # the semilinear command always runs the exact variant, but an
        # unknown one is still a malformed config
        cfg = _ini(tmp_path, "[penalty]\nvariant = cubic\n")
        assert main([command, "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config-value" in err and "variant" in err

    @pytest.mark.parametrize("command,section,key,value", [
        ("observability", "weights", "c_proxy", "0"),
        ("weights-check", "weights", "c_proxy", "-1"),
        ("weights-check", "weights", "lambda", "0"),
        ("observability", "weights", "s_factor", "-1"),
        ("weights-check", "weights", "s", "-1"),
        ("insensitize-linear", "penalty", "epsilon", "0"),
        ("insensitize-linear", "sampling", "gap_tol", "-1"),
    ])
    def test_nonpositive_value_exits_1(self, tmp_path, capsys, command,
                                       section, key, value):
        cfg = _ini(tmp_path, f"[{section}]\n{key} = {value}\n")
        assert main([command, "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_quadratic_variant_exit_matches_manifest(self, tmp_path):
        # the relaxed penalty is not required to satisfy the null check;
        # the exit code just has to tell the truth about it
        cfg = _ini(tmp_path, "[penalty]\nvariant = quadratic\n")
        out = tmp_path / "out"
        code = main(["insensitize-linear", "--quick", "--config", cfg,
                     "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert code == (0 if doc["all_passed"] else 2)
        summary = (out / "control_summary.csv").read_text().splitlines()[1]
        assert summary.split(",")[0] == "quadratic"

    def test_stiff_damping_exits_0(self, tmp_path):
        # constant coefficients march as an exact mode recurrence, so a
        # damping far beyond 2/dt stays stable
        cfg = _ini(tmp_path, "[coefficients]\na0 = 1000\n")
        assert main(["insensitize-linear", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0

    def test_nonpositive_denominator_exits_2(self, tmp_path, capsys):
        cfg = _ini(tmp_path, "[coefficients]\na0 = -1000\n")
        assert main(["insensitize-linear", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "implicit-denominator-nonpositive" in err
        assert "sine mode 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,rc,code,context,outputs,checks", [
        ("[coefficients]\na0 = -1e6\n", 2,
         "implicit-denominator-nonpositive", {"step": 0, "mode": [1]}, [], []),
        ("[sampling]\ntau_probe = 1e300\n", 1, "probe-step", {},
         ["hum_convergence.csv", "control_summary.csv"],
         ["hum-converged", "null-condition"]),
    ], ids=["engine-error", "setup-error-after-synthesis"])
    def test_coded_error_leaves_manifest(self, tmp_path, capsys, text, rc,
                                         code, context, outputs, checks):
        # a run a coded error ends still records what failed, where, and
        # what it wrote before
        cfg = _ini(tmp_path, text)
        out = tmp_path / "o"
        assert main(["insensitize-linear", "--quick", "--config", cfg,
                     "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert f"insensitize-linear: {code}: " in err and "Traceback" not in err
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["error"]["code"] == code
        assert doc["error"]["context"] == context
        assert doc["error"]["message"] in err
        assert doc["all_passed"] is False and "total" in doc["timings"]
        assert [o["path"] for o in doc["outputs"]] == outputs
        assert all((out / name).is_file() for name in outputs)
        assert [c["name"] for c in doc["checks"]] == checks

    def test_nonfinite_ratio_fails_ratios_finite(self, tmp_path, monkeypatch):
        # one draw with NaN energies among finite ones fails the check,
        # even though the maximum over the others is finite
        from insens4 import hum_synthesis, pde_engine

        def poisoned(*args, **kwargs):
            psi = pde_engine.solve_backward(*args, **kwargs)
            psi.fields[:, 1, 1] = float("nan")   # row 1's control-window energy
            return psi

        monkeypatch.setattr(hum_synthesis, "solve_backward", poisoned)
        out = tmp_path / "o"
        assert main(["observability", "--quick", "--out", str(out)]) == 2
        doc = json.loads((out / "manifest.json").read_text())
        chk = {c["name"]: c for c in doc["checks"]}["ratios-finite"]
        assert not chk["passed"] and chk["n_nonfinite"] == 1
        rows = (out / "ratio_samples.csv").read_text().splitlines()[1:]
        statuses = [row.split(",")[3] for row in rows]
        assert statuses[1] == "nonfinite"
        assert statuses.count("nonfinite") == 1

    @pytest.mark.parametrize("command", ["insensitize-linear",
                                         "observability"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_unstable_lower_order_exits_2_coded(self, tmp_path, capsys,
                                                command, dim):
        # a large a1 with a first-order term takes the 1D inverse path or
        # the 2D GMRES path; the mean-coefficient symbol of the first node
        # gives 1 + c lambda <= 0, so the first march stops with the
        # diagonal path's code, before anything can blow up
        out = tmp_path / "o"
        assert main([command, "--quick", "--config",
                     _ini(tmp_path, _lower_order_ini(dim, 30)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{command}: implicit-denominator-nonpositive: " in err
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error["code"] == "implicit-denominator-nonpositive"
        assert error["context"] == {"step": 0,
                                    "mode": [2] if dim == 1 else [1, 2]}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_two_key_lower_order_fails_certification(self, tmp_path, capsys,
                                                     dim):
        # a1 = 10 passes the denominator guard, but the synthesis operator
        # grows past 1e26 and its Lanczos model cannot be certified: one
        # proximal step says so, and the run exits 2 with no coded error
        out = tmp_path / "o"
        assert main(["insensitize-linear", "--quick", "--config",
                     _ini(tmp_path, _lower_order_ini(dim, 10)),
                     "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "manifest.json").read_text())
        assert "error" not in doc
        assert not {c["name"]: c for c in doc["checks"]}["hum-converged"]["passed"]
        log = [row.split(",") for row in
               (out / "hum_convergence.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in log].count("ista") == 1
        krylov_dim = max(int(row[1]) for row in log if row[0] == "lanczos")
        header, row = (out / "control_summary.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["converged"] == "false"
        assert int(cells["operator_applies"]) == krylov_dim + 2

    def test_picard_budget_exhaustion_is_a_failed_check(self, tmp_path,
                                                        capsys):
        # the Picard loop's coded failure keeps its history on disk and
        # fails the check; it is not a run-ending error
        cfg = _ini(tmp_path, "[nonlinearity]\nkind = tanh\n"
                             "[picard]\nmax_iter = 1\n")
        out = tmp_path / "o"
        assert main(["insensitize-semilinear", "--quick", "--config", cfg,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "insens4 insensitize-semilinear: maxIter-exceeded: " in err
        assert "Traceback" not in err
        doc = json.loads((out / "manifest.json").read_text())
        assert "error" not in doc
        assert doc["checks"] == [{"name": "picard-converged", "passed": False,
                                  "code": "maxIter-exceeded"}]
        history = (out / "picard_history.csv").read_text().splitlines()
        assert len(history) == 2 and history[1].startswith("1,")

    def test_2d_eta_peak_per_axis(self, tmp_path, capsys):
        text = ("[grid]\ndimension = 2\ncells = 32\nsteps = 16\n"
                "[domains]\nomega = 0.6:1.4,0.6:1.4\nobs = 1.0:1.8,1.0:1.8\n"
                "[weights]\neta_peak = %s\n")
        short = _ini(tmp_path, text % "1.2", "short.ini")
        assert main(["weights-check", "--config", short,
                     "--out", str(tmp_path / "o1")]) == 1
        err = capsys.readouterr().err
        assert "eta-peak-shape" in err and "Traceback" not in err
        full = _ini(tmp_path, text % "1.2, 1.2", "full.ini")
        assert main(["weights-check", "--config", full,
                     "--out", str(tmp_path / "o2")]) == 0

    @pytest.mark.parametrize("peak,code,rc", [
        ("5.0", "eta-peak-outside-domain", 1),
        ("0.2", "critical-point-outside-omega0", 2),
    ], ids=["outside-domain", "outside-omega0-hull"])
    def test_eta_peak_outside(self, tmp_path, capsys, peak, code, rc):
        # a peak off the domain is malformed input (exit 1); one inside
        # the domain but off omega0's hull fails the weights check (exit 2)
        cfg = _ini(tmp_path, "[weights]\neta_peak = %s\n" % peak)
        assert main(["weights-check", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == rc
        err = capsys.readouterr().err
        assert code in err and "Traceback" not in err

    @pytest.mark.parametrize("line", ["samples = 0", "mode_cap = -3",
                                      "directions = -3"])
    def test_bad_sampling_value_exits_1(self, tmp_path, capsys, line):
        # a malformed value is a setup error (exit 1), not a failed check
        cfg = _ini(tmp_path, "[sampling]\n%s\n" % line)
        assert main(["observability", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config-value" in err and line.split(" =")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["insensitize-linear",
                                         "insensitize-semilinear"])
    def test_zero_directions_exits_1(self, tmp_path, capsys, command):
        # with no direction the sentinel probe checks nothing, so the
        # returned control's insensitivity would go unchecked behind exit 0
        cfg = _ini(tmp_path, "[sampling]\ndirections = 0\n")
        assert main([command, "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config-value" in err and "directions must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[coefficients]\na0 = inf\n",
        "[penalty]\nepsilon = nan\n",
        "[sampling]\ntau_probe = 0\n",
    ], ids=["a0-inf", "epsilon-nan", "tau-probe-zero"])
    def test_bad_float_exits_1(self, tmp_path, capsys, text):
        # non-finite input and a zero probe step are setup errors, not
        # tracebacks or failed solves
        cfg = _ini(tmp_path, text)
        assert main(["insensitize-linear", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config-value" in err and text.split("\n")[1].split(" =")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,text", [
        ("insensitize-linear", "[penalty]\nmax_iter = 0\n"),
        ("insensitize-linear", "[penalty]\ntol = 0\n"),
        ("insensitize-semilinear", "[picard]\nmax_iter = -3\n"),
        ("insensitize-semilinear", "[picard]\ntol = -1\n"),
    ], ids=["penalty-max-iter", "penalty-tol", "picard-max-iter", "picard-tol"])
    def test_bad_iteration_budget_exits_1(self, tmp_path, capsys, command, text):
        # an iteration budget below one or a tolerance that is not positive
        # is a setup error, not a failed convergence check
        cfg = _ini(tmp_path, text)
        assert main([command, "--quick", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config-value" in err and text.split("\n")[1].split(" =")[0] in err
        assert "Traceback" not in err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["selftest", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path)]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 - 1])
    def test_seed_range(self, tmp_path, capsys, where, seed):
        # --seed and [run] seed share one range, [0, 2^64); a seed outside
        # it is a usage error found before any computation or manifest
        args = ["--seed", str(seed)] if where == "flag" else \
            ["--config", _ini(tmp_path, f"[run]\nseed = {seed}\n")]
        ok = 0 <= seed < 2**64
        command = "weights-check" if ok else "insensitize-linear"
        out = tmp_path / "o"
        assert main([command, "--quick", *args, "--out", str(out)]) == (0 if ok else 1)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if ok:
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed
        else:
            assert "config-value" in err and not out.exists()

    def test_usage_errors_exit_1(self, capsys):
        assert main(["selftest", "--turbo"]) == 1
        assert main(["bogus-command"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out


# scipy subpackages no command needs, each a cost of every cold start
# (scipy.linalg, which the 1D mode-space LU needs, may load; the GMRES
# midpoint solve is plain numpy, so scipy.sparse stays out)
_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    from insens4.cli import main
    for command in ("observability", "insensitize-linear",
                    "insensitize-semilinear"):
        code = main([command, "--quick", "--out", sys.argv[1] + "/" + command])
        assert code == 0, (command, code)
    heavy = ("scipy.optimize", "scipy.ndimage", "scipy.stats", "scipy.sparse")
    print(json.dumps(sorted(m for m in sys.modules if m.startswith(heavy))))
""")


def test_cli_runs_without_optimize_ndimage_or_stats(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-s", "-c", _IMPORT_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# no command loads scipy at all: the runtime is numpy only, and scipy is a
# test oracle (brentq, ndimage) installed with the test extra
_SCIPY_PROBE = textwrap.dedent("""
    import json, sys
    from insens4.cli import _COMMANDS, main
    loaded = {}
    for command, _, _ in _COMMANDS:
        code = main([command, "--quick", "--out", sys.argv[1] + "/" + command])
        assert code == 0, (command, code)
        loaded[command] = sorted(m for m in sys.modules
                                 if m.startswith("scipy"))
    print(json.dumps(loaded))
""")


def test_no_command_loads_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-s", "-c", _SCIPY_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len(loaded) == 6
    assert loaded == {command: [] for command in loaded}


# every configuration key but [grid] dimension and [run] out, at edge values
_FUZZ_KEYS = [(section, key, kind) for section, keys in SCHEMA.items()
              for key, (kind, _) in keys.items()
              if (section, key) not in (("grid", "dimension"), ("run", "out"))]
_EDGES = ("0", "-1", "1e300", "nan", "abc")
# keys that must be positive (mode_cap must not be negative)
_POSITIVE = {("grid", "extent"), ("grid", "cells"), ("grid", "t_final"),
             ("grid", "steps"), ("penalty", "epsilon"), ("penalty", "tol"),
             ("penalty", "max_iter"), ("picard", "tol"),
             ("picard", "max_iter"), ("weights", "lambda"),
             ("weights", "s_factor"), ("weights", "c_proxy"),
             ("sampling", "samples"), ("sampling", "tau_probe"),
             ("sampling", "directions"), ("sampling", "gap_tol")}
_BASE_2D = {"grid": {"dimension": "2"},
            "domains": {"omega": "0.6:1.4,0.6:1.4", "obs": "1.0:1.8,1.0:1.8"}}


@st.composite
def _fuzz_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    section, key, kind = draw(st.sampled_from(_FUZZ_KEYS))
    values = list(_EDGES)
    if kind == "boxes":
        # reversed, degenerate and whole-domain intervals on the first axis
        rest = ",0.6:1.4" if dim == 2 else ""
        values += [iv + rest for iv in ("1.4:0.6", "1.0:1.0", "0:2")]
    value = draw(st.sampled_from(values))
    command = draw(st.sampled_from([name for name, _, _ in _COMMANDS]))
    return dim, section, key, kind, value, command


def _out_of_range(section, key, kind, value):
    """Whether the documented rules make ``value`` a usage error."""
    if value in ("nan", "abc"):
        return True                          # non-finite or not a number
    if kind == "boxes":
        return not value.startswith("0:2")   # all but the whole domain
    if kind == "str":
        return True                          # no variant or reaction kind
    if kind == "bool":
        return value != "0"
    if kind == "int" and value == "1e300":
        return True                          # not an integer
    if value == "-1" and (section, key) in (("sampling", "mode_cap"),
                                            ("weights", "s"), ("run", "seed")):
        return True                          # 0 means automatic; seeds are unsigned
    if value in ("-1", "1e300") and (section, key) == ("weights", "eta_peak"):
        return True                          # off the domain
    return value in ("0", "-1") and (section, key) in _POSITIVE


class TestConfigFuzz:
    """Every command, in 1D and 2D, on one configuration key at an edge
    value: a coded exit, never a traceback, and exit 1 for input outside
    the documented ranges."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_fuzz_cases())
    def test_edge_values_exit_coded(self, tmp_path, capsys, case):
        dim, section, key, kind, value, command = case
        sections = {name: dict(keys) for name, keys in
                    (_BASE_2D if dim == 2 else {}).items()}
        sections.setdefault(section, {})[key] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                                for k, v in keys.items())
                       for name, keys in sections.items())
        # a fresh directory per example, so no earlier manifest can answer
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        out = work / "o"
        code = main([command, "--quick", "--config", _ini(work, text),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if _out_of_range(section, key, kind, value):
            assert code == 1, (text, err)
        coded = re.match(rf"insens4 {command}: ([\w-]+): ", err)
        if coded and out.is_dir():
            # a coded error after the run began leaves its manifest; the
            # Picard failure is a failed check that carries the code
            doc = json.loads((out / "manifest.json").read_text())
            if "error" in doc:
                assert doc["error"]["code"] == coded[1], (text, err)
                assert doc["all_passed"] is False
            else:
                picard = {c["name"]: c for c in doc["checks"]}["picard-converged"]
                assert picard["code"] == coded[1] and not picard["passed"]
