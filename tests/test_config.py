"""Schema-checked configuration parsing and problem construction."""
import numpy as np
import pytest

from insens4.config import (
    SCHEMA,
    _auto_omega0,
    apply_quick,
    coefficients_from_config,
    default_config,
    parse_boxes,
    parse_config,
    problem_from_config,
)
from insens4.errors import SetupError
from insens4.problem_setup import build_grid


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_spot_values(self):
        cfg = default_config()
        assert cfg["grid"]["cells"] == 64
        assert cfg["grid"]["extent"] == 2.0
        assert cfg["domains"]["omega"] == "0.6:1.4"
        assert cfg["coefficients"]["b0"] == (0.0,)
        assert cfg["penalty"]["epsilon"] == 1e-3
        assert cfg["nonlinearity"]["kind"] == "zero"
        assert cfg["domains"]["smooth"] is False

    def test_covers_schema(self):
        cfg = default_config()
        assert set(cfg) == set(SCHEMA)
        for section in SCHEMA:
            assert set(cfg[section]) == set(SCHEMA[section])

    def test_none_path_is_defaults(self):
        assert parse_config(None) == default_config()


class TestParseConfig:
    def test_overlay(self, tmp_path):
        path = _write(tmp_path, """
[grid]
cells = 24  # inline comment
steps = 32
[weights]
lambda = 2.0
[domains]
omega = 0.2:0.9
""")
        cfg = parse_config(path)
        assert cfg["grid"]["cells"] == 24
        assert cfg["grid"]["steps"] == 32
        assert cfg["weights"]["lambda"] == 2.0
        assert cfg["domains"]["omega"] == "0.2:0.9"
        # untouched keys keep their defaults
        assert cfg["grid"]["extent"] == 2.0
        assert cfg["domains"]["obs"] == "1.0:1.8"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SetupError) as exc:
            parse_config(tmp_path / "nope.ini")
        assert exc.value.code == "config-missing"

    def test_malformed_syntax(self, tmp_path):
        path = _write(tmp_path, "cells = 24\n")  # key before any section
        with pytest.raises(SetupError) as exc:
            parse_config(path)
        assert exc.value.code == "config-parse"

    @pytest.mark.parametrize("text", [
        "[turbo]\nboost = 1\n",
        "[grid]\nspeed = 3\n",
    ])
    def test_unknown_key_or_section(self, tmp_path, text):
        with pytest.raises(SetupError) as exc:
            parse_config(_write(tmp_path, text))
        assert exc.value.code == "config-unknown-key"

    @pytest.mark.parametrize("text", [
        "[grid]\ncells = fast\n",
        "[domains]\nsmooth = maybe\n",
        "[coefficients]\nb0 = 1,x\n",
        # non-finite numbers, and a probe step that is not positive
        "[coefficients]\na0 = inf\n",
        "[penalty]\nepsilon = nan\n",
        "[coefficients]\nb0 = 1,-inf\n",
        "[sampling]\ntau_probe = 0\n",
        # a seed outside the Philox key's [0, 2^64)
        "[run]\nseed = -1\n",
        f"[run]\nseed = {2**64}\n",
    ])
    def test_uncoercible_value(self, tmp_path, text):
        with pytest.raises(SetupError) as exc:
            parse_config(_write(tmp_path, text))
        assert exc.value.code == "config-value"


class TestParseBoxes:
    def test_single_interval(self):
        assert parse_boxes("0.1:0.5", 1) == [(0.1, 0.5)]

    def test_union(self):
        assert parse_boxes("0:0.5 | 1:1.5", 1) == [(0.0, 0.5), (1.0, 1.5)]

    def test_two_axes(self):
        assert parse_boxes("0:1,0.5:1.5", 2) == [((0.0, 1.0), (0.5, 1.5))]

    @pytest.mark.parametrize("spec,dim", [
        ("0:1", 2),          # axis count mismatch
        ("0:1,0:1", 1),
        ("0-1", 1),          # not lo:hi
        ("a:b", 1),
        ("", 1),             # nothing specified
        ("|", 1),
    ])
    def test_rejects(self, spec, dim):
        with pytest.raises(SetupError) as exc:
            parse_boxes(spec, dim, "omega")
        assert exc.value.code == "config-value"


class TestApplyQuick:
    def test_caps(self):
        cfg = default_config()
        quick = apply_quick(cfg)
        assert quick["grid"]["cells"] == 32
        assert quick["grid"]["steps"] == 64
        assert quick["sampling"]["samples"] == 8
        assert quick["sampling"]["directions"] == 2
        assert quick["picard"]["max_iter"] == 12
        # source config untouched
        assert cfg["grid"]["cells"] == 64

    def test_never_grows(self):
        cfg = default_config()
        cfg["grid"]["cells"] = 16
        cfg["sampling"]["samples"] = 3
        quick = apply_quick(cfg)
        assert quick["grid"]["cells"] == 16
        assert quick["sampling"]["samples"] == 3


class TestCoefficients:
    def test_all_zero_defaults_are_none(self):
        fields = coefficients_from_config(default_config(), 1)
        assert fields == {"a0": None, "b0": None, "b": None, "a1": None}

    def test_constant_scalar(self):
        cfg = default_config()
        cfg["coefficients"]["a0"] = 0.7
        field = coefficients_from_config(cfg, 1)["a0"]
        assert field.sup_declared == pytest.approx(0.7)

    def test_vector_and_matrix_lengths(self):
        cfg = default_config()
        cfg["coefficients"]["b0"] = (0.1, 0.2)
        cfg["coefficients"]["b"] = (1.0, 0.0, 0.0, 1.0)
        fields = coefficients_from_config(cfg, 2)
        assert fields["b0"] is not None and fields["b"] is not None
        with pytest.raises(SetupError) as exc:
            cfg["coefficients"]["b"] = (1.0, 2.0, 3.0)
            coefficients_from_config(cfg, 2)
        assert exc.value.code == "config-value"

    def test_explicit_zero_vector_is_none(self):
        cfg = default_config()
        cfg["coefficients"]["b0"] = (0.0, 0.0)
        assert coefficients_from_config(cfg, 2)["b0"] is None


class TestProblemFromConfig:
    def test_s_defaults_to_threshold(self, desk_problem):
        c = desk_problem.constants
        assert c.s == desk_problem.weights.s_threshold

    def test_s_factor_scales_threshold(self):
        cfg = default_config()
        cfg["weights"]["s_factor"] = 2.0
        p = problem_from_config(cfg)
        assert p.constants.s == pytest.approx(2.0 * p.weights.s_threshold,
                                              rel=1e-12)

    def test_explicit_s_wins(self):
        cfg = default_config()
        cfg["weights"]["s"] = 0.02
        p = problem_from_config(cfg)
        assert p.constants.s == 0.02

    def test_auto_omega0_inset(self):
        grid = build_grid(1, 2.0, 64, 1.0, 200)
        boxes = _auto_omega0([(0.6, 1.4)], [(1.0, 1.8)], grid)
        h = 2.0 / 64
        assert boxes == [(1.0 + 2 * h, 1.4 - 2 * h)]

    def test_auto_omega0_needs_overlap(self):
        grid = build_grid(1, 2.0, 64, 1.0, 200)
        with pytest.raises(SetupError) as exc:
            _auto_omega0([(0.0, 0.2)], [(0.15, 0.3)], grid)
        assert exc.value.code == "config-value"

    def test_force_disabled_by_zero_amplitude(self):
        cfg = apply_quick(default_config())
        cfg["force"]["amplitude"] = 0.0
        p = problem_from_config(cfg)
        assert not np.any(p.force_fields)
        assert p.force_weight_integral == 0.0

    def test_force_built_once(self, monkeypatch):
        # the problem holds the force array the config built, not a copy
        from insens4 import config
        built = []
        real = config._force_fields

        def recorded(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(config, "_force_fields", recorded)
        p = problem_from_config(apply_quick(default_config()))
        force = built[0][0]
        assert np.any(force) and not force.flags.writeable
        assert p.force_fields is force

    def test_nonlinearity_kind_applied(self):
        cfg = apply_quick(default_config())
        cfg["nonlinearity"]["kind"] = "tanh"
        cfg["nonlinearity"]["scale"] = 0.2
        p = problem_from_config(cfg)
        assert p.nonlinearity.name == "tanh"
        assert p.nonlinearity.f_u(np.zeros(1), None, None)[0] \
            == pytest.approx(0.2)

    def test_eta_peak_per_axis(self):
        cfg = apply_quick(default_config())
        cfg["grid"]["dimension"] = 2
        cfg["domains"]["omega"] = "0.6:1.4,0.6:1.4"
        cfg["domains"]["obs"] = "1.0:1.8,1.0:1.8"
        cfg["weights"]["eta_peak"] = (1.2, 1.25)
        assert problem_from_config(cfg).profile.peak == (1.2, 1.25)

    def test_round_trip_through_file(self, tmp_path):
        path = _write(tmp_path, """
[grid]
cells = 32
steps = 64
[domains]
omega = 0.5:1.3
obs = 0.9:1.7
omega0 = 1.0:1.2
""")
        p = problem_from_config(parse_config(path))
        assert p.grid.n_cells == 32
        assert p.grid.n_steps == 64
        assert int(p.omega0.support.sum()) > 0
