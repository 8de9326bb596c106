"""Weight construction: closed-form extremes, pointwise properties, envelopes.

Picking lam so that lam * sup(eta) = ln 2 turns every extreme into a
small integer: n0 = 4, N0 = 8, exp(4 lam sup) = 16, M0 = -8, m0 = -12,
and with T = 1 the admissibility threshold is exactly 1/2.  All the
closed-form assertions below lean on that family.
"""
import numpy as np
import pytest

from insens4 import carleman_weights
from insens4.carleman_weights import (
    build_eta,
    build_weights,
    check_envelope_bounds,
    check_weight_properties,
    observability_constants,
)
from insens4.errors import WeightError
from insens4.problem_setup import build_grid, build_mask


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 1.0, 48, 1.0, 64)


@pytest.fixture(scope="module")
def eta(grid):
    return build_eta(grid.basis, build_mask(grid, [(0.45, 0.65)], "omega0").support)


@pytest.fixture(scope="module")
def ln2_weights(grid, eta):
    return build_weights(eta, np.log(2.0) / eta.sup, grid.t_final)


class TestProfile:
    def test_steepness_closed_form(self, eta):
        # the critical-point condition fixes k = (2c - L) / (c (L - c))
        (c,) = eta.peak
        k = (2 * c - 1.0) / (c * (1.0 - c))
        assert eta.steepness[0] == pytest.approx(k, rel=1e-12)

    def test_peak_is_hull_midpoint(self, grid, eta):
        support = build_mask(grid, [(0.45, 0.65)], "omega0").support
        nodes = grid.basis.nodes[0][support]
        half = 1.0 / 48 / 2
        assert eta.peak[0] == pytest.approx(
            (nodes.min() - half + nodes.max() + half) / 2, rel=1e-14)

    def test_gradient_vanishes_at_peak_only(self, eta):
        assert abs(eta.grad_at(eta.peak)[0]) <= 1e-12 * eta.sup
        assert eta.min_grad_outside > 0

    def test_positive_with_peak_supremum(self, eta):
        assert np.all(eta.values > 0)
        assert eta.sup >= eta.values.max()
        assert eta.value_at(eta.peak) == pytest.approx(eta.sup, rel=1e-14)

    def test_peak_outside_support_rejected(self, grid):
        support = build_mask(grid, [(0.45, 0.65)], "omega0").support
        with pytest.raises(WeightError) as exc:
            build_eta(grid.basis, support, peak=(0.9,))
        assert exc.value.code == "critical-point-outside-omega0"

    def test_2d_profile_is_tensor_product(self):
        g = build_grid(2, 1.0, 16, 1.0, 20)
        m = build_mask(g, [((0.4, 0.7), (0.3, 0.6))], "omega0")
        eta2 = build_eta(g.basis, m.support)
        x = (0.5, 0.45)
        ax0 = eta2.value_at((x[0], eta2.peak[1]))
        ax1 = eta2.value_at((eta2.peak[0], x[1]))
        prod = ax0 * ax1 / eta2.sup
        assert eta2.value_at(x) == pytest.approx(prod, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_mesh_evaluation_matches_points(self, dim):
        # value_at and grad_at broadcast over basis.mesh(); build_eta's grid
        # values are those of the point evaluations at every node
        g = build_grid(dim, 1.0, 12, 1.0, 20)
        m = build_mask(g, [(0.4, 0.7)] if dim == 1 else [((0.4, 0.7), (0.3, 0.6))],
                       "omega0")
        eta_d = build_eta(g.basis, m.support)
        grad = eta_d.grad_at(g.basis.mesh())
        assert grad.shape == (dim,) + g.shape
        assert np.array_equal(eta_d.value_at(g.basis.mesh()), eta_d.values)
        for idx in np.ndindex(g.shape):
            point = tuple(nodes[i] for nodes, i in zip(g.basis.nodes, idx))
            assert eta_d.value_at(point) == pytest.approx(eta_d.values[idx], rel=1e-14)
            assert np.allclose(eta_d.grad_at(point), grad[(slice(None),) + idx],
                               rtol=1e-14, atol=0)


class TestSteepnessGuard:
    @pytest.fixture(scope="class")
    def square(self):
        g = build_grid(2, (1.0, 1.5), 16, 1.0, 20)
        return g, build_mask(g, [((0.2, 0.8), (0.3, 1.2))], "omega0")

    def test_sweep_is_closed_form_and_critical(self, square):
        # peaks across the support hull on both axes of a non-square domain
        g, m = square
        for c0 in np.linspace(0.23, 0.77, 9):
            for c1 in np.linspace(0.34, 1.16, 9):
                eta2 = build_eta(g.basis, m.support, peak=(c0, c1))
                for ax, c in enumerate((c0, c1)):
                    L = g.basis.extents[ax]
                    k = eta2.steepness[ax]
                    assert k == (2 * c - L) / (c * (L - c))
                    assert abs((L - 2 * c) + k * c * (L - c)) <= 1e-12 * L

    def test_derivative_off_by_a_constant_is_degenerate(self, square,
                                                        monkeypatch):
        g, m = square
        original = carleman_weights._axis_profile_d1
        monkeypatch.setattr(carleman_weights, "_axis_profile_d1",
                            lambda x, L, k: original(x, L, k) + 1e-9)
        with pytest.raises(WeightError) as exc:
            build_eta(g.basis, m.support)
        assert exc.value.code == "eta-degenerate"


class TestClosedFormFamily:
    def test_integer_extremes(self, ln2_weights):
        w = ln2_weights
        assert w.ext_xi_min == pytest.approx(4.0, rel=1e-12)
        assert w.ext_xi_max == pytest.approx(8.0, rel=1e-12)
        assert w.ext_alpha_max == pytest.approx(-8.0, rel=1e-12)
        assert w.ext_alpha_min == pytest.approx(-12.0, rel=1e-12)

    def test_threshold_is_half(self, ln2_weights):
        w = ln2_weights
        assert w.s_threshold == pytest.approx(0.5, rel=1e-12)
        assert w.s_threshold == pytest.approx(
            4.0 * w.t_final / abs(w.ext_alpha_max), rel=1e-15)

    def test_peak_xi_at_midtime(self, ln2_weights):
        w = ln2_weights
        assert w.sigma(0.5) == pytest.approx(0.5, rel=1e-15)
        assert w.xi0_value(w.sup_eta) / w.sigma(0.5) == pytest.approx(16.0, rel=1e-12)

    def test_alpha0_negative_everywhere(self, ln2_weights):
        assert np.all(ln2_weights.alpha0 < 0)
        assert ln2_weights.alpha0_value(ln2_weights.sup_eta) == pytest.approx(
            -8.0, rel=1e-12)

    def test_time_derivative_midpoint_zero(self, ln2_weights):
        w = ln2_weights
        assert np.all(w.alpha_t_grid(0.5) == 0.0)
        assert np.all(w.xi_t_grid(0.5) == 0.0)

    def test_observability_constants_values(self, ln2_weights):
        oc = observability_constants(ln2_weights, 0.5, {"a0": 1.0})
        assert oc.beta == pytest.approx(3.0, rel=1e-14)
        assert oc.rate_m == pytest.approx(12.0, rel=1e-12)
        assert oc.term_sup == pytest.approx(2.0**48 * np.exp(-16.0), rel=1e-10)
        assert not oc.overflowed
        assert oc.cost_h == oc.term_sup + oc.term_window

    def test_beta_sums_squared_sups(self, ln2_weights):
        oc = observability_constants(
            ln2_weights, 0.5, {"a0": 0.5, "b0": 1.5, "b": 2.0, "a1": 0.1})
        assert oc.beta == pytest.approx(2.0 + 0.25 + 2.25 + 4.0 + 0.01, rel=1e-14)


class TestPropertyChecks:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_all_pass_across_lambda(self, grid, eta, lam):
        w = build_weights(eta, lam, grid.t_final)
        report = check_weight_properties(w, grid.times)
        assert report.all_passed, [c for c in report.checks if not c.passed]

    def test_check_names_stable(self, grid, ln2_weights):
        names = [c.name for c in check_weight_properties(ln2_weights, grid.times).checks]
        assert names == ["alpha0-range", "xi0-range", "gradient-identity",
                         "xi-inverse", "time-derivative", "stationary-at-midtime"]


class TestEnvelopes:
    def test_tight_at_threshold(self, grid, ln2_weights):
        report = check_envelope_bounds(ln2_weights, ln2_weights.s_threshold,
                                       grid.times)
        assert report.all_passed
        assert report.tightness_gap <= 1e-12
        assert report.at_threshold and report.tight
        peak, tmid = report.tightness_location
        assert tmid == pytest.approx(grid.t_final / 2)

    @pytest.mark.parametrize("factor", [2.0, 10.0])
    def test_pass_above_threshold(self, grid, ln2_weights, factor):
        report = check_envelope_bounds(
            ln2_weights, factor * ln2_weights.s_threshold, grid.times)
        assert report.all_passed
        # the sup envelope is only saturated exactly at the threshold
        assert report.tightness_gap > 1e-3
        assert not report.at_threshold and report.tight

    def test_below_threshold_rejected(self, grid, ln2_weights):
        thr = ln2_weights.s_threshold
        with pytest.raises(WeightError) as exc:
            check_envelope_bounds(ln2_weights, 0.9 * thr, grid.times)
        assert exc.value.code == "s-below-threshold"
        assert exc.value.context["threshold"] == pytest.approx(thr)
        with pytest.raises(WeightError):
            observability_constants(ln2_weights, 0.9 * thr, {})

    def test_overflow_reported_not_raised(self, grid, ln2_weights):
        oc = observability_constants(ln2_weights, 1e4, {})
        assert oc.overflowed
        assert np.isinf(oc.cost_h)


class TestBuildWeightsGuards:
    def test_lambda_below_one(self, eta):
        with pytest.raises(WeightError) as exc:
            build_weights(eta, 0.5, 1.0)
        assert exc.value.code == "lambda-inadmissible"

    def test_nonpositive_horizon(self, eta):
        with pytest.raises(WeightError) as exc:
            build_weights(eta, 1.0, 0.0)
        assert exc.value.code == "horizon-inadmissible"

    def test_overflowing_lambda(self, eta):
        with pytest.raises(WeightError) as exc:
            build_weights(eta, 1e4, 1.0)
        assert exc.value.code == "lambda-too-large"
