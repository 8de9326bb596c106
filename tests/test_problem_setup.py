"""Grid, masks, coefficient fields, and problem validation."""
import numpy as np
import pytest
from scipy import ndimage

from insens4.errors import SetupError
from insens4.problem_setup import (
    CoefficientField,
    ProblemConfig,
    _contained_with_margin,
    _dilate,
    build_grid,
    build_mask,
    validate_problem,
)


def _config(grid, **overrides):
    base = dict(
        grid=grid,
        omega=build_mask(grid, [(0.5, 1.3)], "omega"),
        obs=build_mask(grid, [(0.9, 1.7)], "obs"),
        omega0=build_mask(grid, [(1.0, 1.2)], "omega0"),
    )
    base.update(overrides)
    return ProblemConfig(**base)


class TestGrid:
    def test_nodes_and_times(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        assert g.dt == pytest.approx(0.05)
        assert g.times.shape == (20,)
        # source and control samples live at midpoint nodes (j + 1/2) dt
        assert np.allclose(g.times, (np.arange(20) + 0.5) * 0.05)
        assert np.allclose(g.basis.nodes[0], np.arange(1, 16) * 2.0 / 16)

    def test_square_extent_broadcast(self):
        g = build_grid(2, 1.5, 8, 1.0, 16)
        assert g.extents == (1.5, 1.5)
        assert g.basis.shape == (7, 7)

    def test_too_coarse(self):
        with pytest.raises(SetupError) as exc:
            build_grid(1, 1.0, 4, 1.0, 20)
        assert exc.value.code == "grid-too-coarse"
        with pytest.raises(SetupError):
            build_grid(1, 1.0, 16, 1.0, 8)

    def test_bad_dimension(self):
        with pytest.raises(SetupError):
            build_grid(3, 1.0, 16, 1.0, 20)


class TestMask:
    def test_sharp_indicator_matches_nodes(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        m = build_mask(g, [(0.5, 1.25)], "m")
        x = g.basis.nodes[0]
        expected = ((x > 0.5) & (x < 1.25)).astype(float)
        assert np.array_equal(m.values, expected)
        assert np.array_equal(m.support, expected > 0)
        assert int(m.support.sum()) == int(expected.sum())

    def test_union_of_boxes(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        m = build_mask(g, [(0.2, 0.5), (1.5, 1.8)], "m")
        x = g.basis.nodes[0]
        expected = ((x > 0.2) & (x < 0.5)) | ((x > 1.5) & (x < 1.8))
        assert np.array_equal(m.support, expected)

    # edges between nodes, and edges on nodes (nodes 8 and 24), where a
    # one-cell ramp would hold no node and equal the sharp mask
    @pytest.mark.parametrize("lo,hi,ramp_nodes", [(0.53, 1.47, 4),
                                                  (0.5, 1.5, 2)])
    def test_smooth_mask_ramps(self, lo, hi, ramp_nodes):
        g = build_grid(1, 2.0, 32, 1.0, 20)
        m = build_mask(g, [(lo, hi)], "m", smooth=True)
        assert np.any((m.values > 0) & (m.values < 1))
        assert np.all(m.values >= 0) and np.all(m.values <= 1)
        # plateau two cells in from each edge, strict ramp just inside it
        x = g.basis.nodes[0]
        ramp = 2 * 2.0 / 32
        core = (x >= lo + ramp) & (x <= hi - ramp)
        assert np.allclose(m.values[core], 1.0)
        edge = ((x > lo) & (x < lo + ramp)) | ((x < hi) & (x > hi - ramp))
        assert edge.sum() == ramp_nodes
        assert np.all((m.values[edge] > 0) & (m.values[edge] < 1.0))
        # the support is the sharp mask's
        assert np.array_equal(m.support, build_mask(g, [(lo, hi)], "m").support)

    def test_2d_box(self):
        g = build_grid(2, 2.0, 12, 1.0, 20)
        m = build_mask(g, [((0.5, 1.5), (0.3, 1.0))], "m")
        xs, ys = g.basis.nodes
        expected = ((xs > 0.5) & (xs < 1.5))[:, None] & ((ys > 0.3) & (ys < 1.0))[None, :]
        assert np.array_equal(m.support, expected)

    @pytest.mark.parametrize("dim,boxes,smooth", [
        (1, [(0.5, 1.25)], False),
        (1, [(0.2, 0.5), (1.5, 1.8)], False),
        (1, [(0.5, 1.5)], True),
        (2, [((0.5, 1.5), (0.3, 1.0))], False),
        (2, [((0.2, 0.6), (0.3, 0.7)), ((1.1, 1.7), (0.9, 1.9))], True),
    ])
    def test_box_bounds_support_tightly(self, dim, boxes, smooth):
        g = build_grid(dim, 2.0, 16, 1.0, 20)
        m = build_mask(g, boxes, "m", smooth=smooth)
        assert len(m.box) == dim
        inside = np.zeros(g.shape, dtype=bool)
        inside[m.box] = True
        # every nonzero value lies in the box ...
        assert not np.any(m.values[~inside])
        # ... and the support reaches each face of it
        for ax, sl in enumerate(m.box):
            other = tuple(a for a in range(dim) if a != ax)
            hit = np.flatnonzero(m.support.any(axis=other))
            assert (sl.start, sl.stop) == (hit[0], hit[-1] + 1)

    def test_box_outside_domain(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        with pytest.raises(SetupError) as exc:
            build_mask(g, [(1.5, 2.5)], "m")
        assert exc.value.code == "box-outside-domain"

    def test_empty_mask(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        with pytest.raises(SetupError) as exc:
            build_mask(g, [(0.51, 0.55)], "m")
        assert exc.value.code == "empty-mask"


class TestCoefficientField:
    def test_constant_shapes_and_sup(self):
        a0 = CoefficientField.constant("a0", 0.7)
        assert a0.sup_declared == pytest.approx(0.7)
        b0 = CoefficientField.constant("b0", [0.3, 0.4], dim=2)
        assert b0.sup_declared == pytest.approx(0.5)
        with pytest.raises(SetupError) as exc:
            CoefficientField.constant("b0", 1.0, dim=2)
        assert exc.value.code == "coefficient-shape"

    def test_eval_broadcasts(self):
        g = build_grid(2, 2.0, 10, 1.0, 20)
        b = CoefficientField.constant("b", np.eye(2) * 0.2, dim=2)
        vals = b.eval(g.basis, 0.0)
        assert vals.shape == (2, 2) + g.basis.shape
        assert np.all(vals[0, 0] == 0.2) and np.all(vals[0, 1] == 0.0)

    def test_callable_bound_check(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        fld = CoefficientField.from_callable(
            "a0", lambda x, t: np.sin(np.pi * x), sup_declared=0.5)
        cfg = _config(g, a0=fld)
        with pytest.raises(SetupError) as exc:
            validate_problem(cfg)
        assert exc.value.code == "declared-bound-violated"


class TestMarginDilation:
    @pytest.mark.parametrize("shape", [(40,), (17, 23)])
    @pytest.mark.parametrize("margin", [1, 2, 3])
    def test_matches_binary_dilation(self, shape, margin):
        # reference: scipy's dilation by the 3^d box, and the verdict on it
        structure = np.ones((3,) * len(shape), dtype=bool)
        rng = np.random.default_rng(7 * margin + len(shape))
        verdicts = set()
        interior = np.zeros(shape, dtype=bool)
        interior[(slice(3, -3),) * len(shape)] = True
        for draw in range(40):
            inner = rng.random(shape) < rng.uniform(0.02, 0.3)
            if draw % 2:
                inner &= interior  # room for the margin inside the array
            outer = ndimage.binary_dilation(
                inner, structure=structure,
                iterations=int(rng.integers(1, 4))) | (rng.random(shape) < 0.5)
            want = ndimage.binary_dilation(inner, structure=structure,
                                           iterations=margin)
            assert np.array_equal(_dilate(inner, margin), want)
            inner_p = np.pad(inner, margin)
            outer_p = np.pad(outer, margin)
            verdict = bool(np.all(outer_p[ndimage.binary_dilation(
                inner_p, structure=structure, iterations=margin)]))
            assert _contained_with_margin(inner, outer, margin) is verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestValidateProblem:
    def test_seals_and_builds_weights(self):
        g = build_grid(1, 2.0, 32, 1.0, 40)
        p = validate_problem(_config(g, a0=CoefficientField.constant("a0", 0.7)))
        assert p.sup_norms["a0"] == pytest.approx(0.7)
        assert p.sup_norms["b"] == 0.0
        assert p.weights.s_threshold > 0
        assert p.constants.s >= p.weights.s_threshold * (1 - 1e-12)
        assert not p.force_fields.flags.writeable
        assert p.nonlinearity.is_zero

    def test_disjoint_omega_obs(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        cfg = _config(
            g,
            omega=build_mask(g, [(0.2, 0.6)], "omega"),
            obs=build_mask(g, [(1.2, 1.8)], "obs"),
            omega0=build_mask(g, [(0.3, 0.5)], "omega0"),
        )
        with pytest.raises(SetupError) as exc:
            validate_problem(cfg)
        assert exc.value.code == "disjoint-omega-obs"

    def test_omega0_margin(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        cfg = _config(g, omega0=build_mask(g, [(0.9, 1.7)], "omega0"))
        with pytest.raises(SetupError) as exc:
            validate_problem(cfg)
        assert exc.value.code == "omega0-margin"

    @pytest.mark.parametrize("key,value", [
        ("epsilon", np.nan), ("lam", np.nan), ("s", np.inf),
        ("s_factor", np.nan), ("c_proxy", np.nan), ("force_onset", np.nan),
    ])
    def test_nonfinite_parameter_rejected(self, key, value):
        # each passes every later comparison; lam, s, s_factor and c_proxy
        # would give cost_h = nan
        g = build_grid(1, 2.0, 16, 1.0, 20)
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, **{key: value}))
        assert exc.value.code == "parameter-nonfinite"
        assert exc.value.context["key"] == key

    @pytest.mark.parametrize("key,value", [
        ("epsilon", 0.0), ("c_proxy", -1.0), ("lam", 0.0), ("lam", -1.0),
        ("s_factor", 0.0), ("s_factor", -1.0), ("s", -1.0),
    ])
    def test_nonpositive_parameter_rejected(self, key, value):
        # c_proxy = 0 divides by zero in cost_h, c_proxy < 0 gives nan; a
        # weight parameter at or below zero is a usage error, not a failed
        # admissibility check
        g = build_grid(1, 2.0, 16, 1.0, 20)
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, **{key: value}))
        assert exc.value.code == "parameter-nonpositive"
        assert exc.value.context["key"] == key

    def test_force_onset_required(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        force = np.ones((g.n_steps,) + g.basis.shape)
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, force=force, force_onset=0.0))
        assert exc.value.code == "force-onset"

    def test_force_before_onset_rejected(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        force = np.ones((g.n_steps,) + g.basis.shape)
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, force=force, force_onset=0.3))
        assert exc.value.code == "force-onset"

    def test_force_shape_checked(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, force=np.ones((3, 3)), force_onset=0.3))
        assert exc.value.code == "force-shape"

    def test_callable_force_rejected(self):
        # the force is given as values at the midpoint nodes, not a function
        g = build_grid(1, 2.0, 16, 1.0, 20)
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, force=lambda x, t: np.sin(x) * t,
                                     force_onset=0.3))
        assert exc.value.code == "force-shape"

    def test_force_weight_integral(self):
        g = build_grid(1, 2.0, 32, 1.0, 40)
        force = np.zeros((g.n_steps,) + g.basis.shape)
        profile = np.sin(np.pi * g.basis.nodes[0] / 2.0)
        late = g.times > 0.25
        force[late] = profile
        p1 = validate_problem(_config(g, force=force, force_onset=0.25))
        p2 = validate_problem(_config(g, force=3.0 * force, force_onset=0.25))
        assert p1.force_weight_integral > 0
        # quadratic in the force amplitude
        assert p2.force_weight_integral == pytest.approx(
            9.0 * p1.force_weight_integral, rel=1e-12)
        # matches the direct weighted sum over active midpoints
        b = g.basis
        direct = g.dt * sum(
            np.exp(p1.constants.rate_m / np.sqrt(t)) * b.inner(f, f)
            for t, f in zip(g.times, force) if b.inner(f, f) > 0)
        assert p1.force_weight_integral == pytest.approx(direct, rel=1e-10)

    def test_zero_force_integral_is_zero(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        p = validate_problem(_config(g))
        assert p.force_weight_integral == 0.0

    def test_early_onset_divergence(self):
        # an onset so early that exp(M / sqrt(t)) overflows must be loud
        g = build_grid(1, 2.0, 32, 1.0, 4000)
        force = np.zeros((g.n_steps,) + g.basis.shape)
        force[g.times > 1e-4] = 1.0
        cfg = _config(g, force=force, force_onset=1e-4)
        with pytest.raises(SetupError) as exc:
            validate_problem(cfg)
        assert exc.value.code == "force-weight-divergent"

    @pytest.mark.parametrize("fld", [
        # a NaN compares False against the declared bound
        CoefficientField.from_callable("a0", lambda x, t: np.where(
            x > 1.0, np.nan, 0.1), sup_declared=1.0),
        CoefficientField.constant("a0", np.inf),
        CoefficientField.from_callable("a0", lambda x, t: 0.1 * x,
                                       sup_declared=np.nan),
    ], ids=["nan-value", "inf-constant", "nan-bound"])
    def test_nonfinite_coefficient_rejected(self, fld):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, a0=fld))
        assert exc.value.code == "coefficient-nonfinite"

    def test_nonfinite_force_rejected(self):
        # one NaN row would drop out of the weighted integral's norms2 > 0
        g = build_grid(1, 2.0, 32, 1.0, 40)
        force = np.zeros((g.n_steps,) + g.basis.shape)
        force[g.times > 0.25] = 1.0
        force[30, 4] = np.nan
        with pytest.raises(SetupError) as exc:
            validate_problem(_config(g, force=force, force_onset=0.25))
        assert exc.value.code == "force-nonfinite"
        assert exc.value.context["step"] == 30

    def test_wrong_role_slot(self):
        g = build_grid(1, 2.0, 16, 1.0, 20)
        cfg = _config(g, a0=CoefficientField.constant("a1", 0.5))
        with pytest.raises(SetupError) as exc:
            validate_problem(cfg)
        assert exc.value.code == "coefficient-shape"
