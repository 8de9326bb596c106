"""Sine basis: transform identities, eigenvalues, and exact transposes."""
import numpy as np
import pytest

from insens4.spectral import SineBasis


@pytest.fixture(params=[((2.0,), 16), ((1.5, 2.5), 10)], ids=["1d", "2d"])
def basis(request):
    extents, n = request.param
    return SineBasis(extents, n)


def _random(basis, seed=0):
    return np.random.default_rng(seed).standard_normal(basis.shape)


def test_shape_and_volumes(basis):
    dim = basis.dim
    assert basis.shape == (basis.n_cells - 1,) * dim
    assert basis.cell_volume == pytest.approx(
        np.prod([L / basis.n_cells for L in basis.extents]))
    # mode normalization carries the factor prod(L_i / 2)
    assert basis.mode_volume == pytest.approx(
        np.prod([L / 2 for L in basis.extents]))


def test_round_trip(basis):
    u = _random(basis)
    assert np.allclose(basis.from_modes(basis.to_modes(u)), u,
                       rtol=0, atol=1e-13)


def test_analytic_sine_is_single_mode(basis):
    k = (2,) * basis.dim
    mesh = basis.mesh()
    u = np.ones(basis.shape)
    for ax in range(basis.dim):
        u = u * np.sin(k[ax] * np.pi * mesh[ax] / basis.extents[ax])
    modes = basis.to_modes(u)
    expected = np.zeros(basis.shape)
    expected[tuple(i - 1 for i in k)] = 1.0
    assert np.allclose(modes, expected, rtol=0, atol=1e-12)


def test_parseval(basis):
    u = _random(basis, 1)
    w = _random(basis, 2)
    lhs = basis.inner(u, w)
    rhs = basis.mode_volume * np.sum(basis.to_modes(u) * basis.to_modes(w))
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert basis.norm(u) == pytest.approx(np.sqrt(basis.inner(u, u)), rel=1e-13)


def test_first_derivative_is_analytic_cosine():
    basis = SineBasis((2.0,), 16)
    kappa = 3 * np.pi / 2.0
    x = basis.nodes[0]
    u = np.sin(kappa * x)
    assert np.allclose(basis.dx(u), kappa * np.cos(kappa * x),
                       rtol=0, atol=1e-12)


def test_bilaplacian_eigenvalues(basis):
    # mode (k1, .., kd) maps to (sum (k_i pi / L_i)^2)^2 times itself
    idx = (1,) * basis.dim if basis.dim == 1 else (2, 1)
    e = np.zeros(basis.shape)
    e[idx] = 1.0
    mode = basis.from_modes(e)
    lam = sum((basis.kappa[ax][idx[ax]]) ** 2 for ax in range(basis.dim)) ** 2
    # transform roundoff in the mode tail is amplified by kappa^4
    top = float(np.max(basis.bilap_modes))
    assert np.allclose(basis.bilap(mode), lam * mode, rtol=0,
                       atol=1e-13 * max(lam, top))
    k = idx[0] + 1
    assert basis.kappa[0][idx[0]] == pytest.approx(
        k * np.pi / basis.extents[0], rel=1e-14)


def test_lap_is_dxx_sum(basis):
    u = _random(basis, 3)
    out = basis.dxx(u, 0)
    if basis.dim == 2:
        out = out + basis.dxx(u, 1)
    assert np.allclose(basis.lap(u), out, rtol=0, atol=1e-11)


def test_transposes_are_exact(basis):
    u = _random(basis, 4)
    w = _random(basis, 5)
    scale = basis.norm(u) * basis.norm(w)
    for ax in range(basis.dim):
        gap = basis.inner(basis.dx(u, ax), w) - basis.inner(u, basis.dx_t(w, ax))
        assert abs(gap) <= 1e-12 * scale
    for i in range(basis.dim):
        for j in range(basis.dim):
            gap = basis.inner(basis.d2(u, i, j), w) \
                - basis.inner(u, basis.d2_t(w, i, j))
            assert abs(gap) <= 1e-11 * scale


def test_dxx_self_transposed(basis):
    u = _random(basis, 6)
    w = _random(basis, 7)
    gap = basis.inner(basis.dxx(u), w) - basis.inner(u, basis.dxx(w))
    assert abs(gap) <= 1e-11 * basis.norm(u) * basis.norm(w)


def test_hessian_symmetric():
    # mixed partials need two axes
    basis = SineBasis((1.5, 2.5), 10)
    h = basis.hessian(_random(basis, 8))
    assert np.allclose(h[0, 1], h[1, 0], rtol=0, atol=1e-12)


def test_gradient_stacks_dx(basis):
    u = _random(basis, 9)
    g = basis.gradient(u)
    assert g.shape == (basis.dim,) + basis.shape
    for ax in range(basis.dim):
        assert np.array_equal(g[ax], basis.dx(u, ax))


def test_h2_norm_single_mode():
    # exact symbol value (1 + kappa^2 + kappa^4) ||mode||^2 for one mode
    basis = SineBasis((2.0,), 16)
    e = np.zeros(basis.shape)
    e[2] = 1.0
    mode = basis.from_modes(e)
    kappa2 = (3 * np.pi / 2.0) ** 2
    expected = (1 + kappa2 + kappa2**2) * basis.inner(mode, mode)
    assert basis.h2_norm_sq(mode) == pytest.approx(expected, rel=1e-12)


def test_h2_norm_dominates_l2(basis):
    u = _random(basis, 10)
    assert basis.h2_norm_sq(u) >= basis.inner(u, u)


def test_operators_act_per_field_of_a_stack(basis):
    # spatial axes are trailing: a (3, *shape) stack is three fields
    stack = np.random.default_rng(11).standard_normal((3,) + basis.shape)
    ops = [basis.to_modes, basis.from_modes, basis.lap, basis.bilap,
           basis.gradient, basis.hessian]
    for ax in range(basis.dim):
        ops += [lambda u, ax=ax: basis.dx(u, ax),
                lambda u, ax=ax: basis.dx_t(u, ax),
                lambda u, ax=ax: basis.dxx(u, ax)]
        for bx in range(basis.dim):
            ops += [lambda u, ax=ax, bx=bx: basis.d2(u, ax, bx),
                    lambda u, ax=ax, bx=bx: basis.d2_t(u, ax, bx)]
    for op in ops:
        out = op(stack)
        lead = out.ndim - stack.ndim   # component axes come first
        assert out.shape[lead:] == stack.shape
        scale = np.abs(out).max()
        for i, u in enumerate(stack):
            got = out[(slice(None),) * lead + (i,)]
            assert np.abs(got - op(u)).max() <= 1e-14 * scale


@pytest.mark.parametrize("lead", [(), (3,)], ids=["field", "stack"])
def test_boxed_transforms_match_full(basis, lead):
    # a box reads (to_modes) or returns (from_modes) the nodes on it only
    rng = np.random.default_rng(12)
    full_box = (slice(2, 7), slice(3, 9))[:basis.dim]
    for box in (full_box, (slice(0, 1), slice(8, 9))[:basis.dim],
                (slice(None),) * basis.dim):
        index = (...,) + box
        u = np.zeros(lead + basis.shape)
        u[index] = rng.standard_normal(u[index].shape)
        want = basis.to_modes(u)
        got = basis.to_modes(u[index], box)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        c = rng.standard_normal(lead + basis.shape)
        want = basis.from_modes(c)[index]
        got = basis.from_modes(c, box)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_unboxed_transforms_unchanged_by_box_calls(basis):
    # boxed calls leave the full transforms' products alone
    u = _random(basis, 13)
    before = basis.to_modes(u), basis.from_modes(u)
    box = (slice(1, 4),) * basis.dim
    basis.to_modes(u[box], box)
    basis.from_modes(u, box)
    assert np.array_equal(basis.to_modes(u), before[0])
    assert np.array_equal(basis.from_modes(u), before[1])


def test_box_slices_memoized_per_box(basis, monkeypatch):
    # alternating two box objects (a sampler's obs and omega boxes) builds
    # each one's slices once and hands the same arrays back every call
    misses = []
    original = SineBasis._box_mats

    def counted(self, box):
        if self is basis:
            misses.append(box)
        return original(self, box)

    monkeypatch.setattr(SineBasis, "_box_mats", counted)
    boxes = ((slice(2, 7), slice(3, 9))[:basis.dim],
             (slice(0, 4), slice(5, 8))[:basis.dim])
    first = [basis._slices(box) for box in boxes]
    rng = np.random.default_rng(14)
    fresh = SineBasis(basis.extents, basis.n_cells)
    for _ in range(5):
        for box, mats in zip(boxes, first):
            assert basis._slices(box) is mats
            index = (...,) + box
            u = rng.standard_normal((3,) + basis.shape)
            assert np.array_equal(basis.to_modes(u[index], box),
                                  fresh.to_modes(u[index], box))
            assert np.array_equal(basis.from_modes(u, box),
                                  fresh.from_modes(u, box))
    assert misses == list(boxes)


@pytest.mark.parametrize("cap", [None, 4])
def test_random_smooth_fills_the_low_mode_cube(basis, cap):
    dim = basis.dim
    got = basis.random_smooth(np.random.default_rng(3), 1.5, cap)
    n = min(basis.shape) if cap is None else cap
    draws = np.random.default_rng(3).standard_normal((n,) * dim)
    idx = np.arange(1, n + 1, dtype=float)
    rank = idx if dim == 1 else np.hypot(idx[:, None], idx[None, :])
    want = np.zeros(basis.shape)
    want[(slice(0, n),) * dim] = draws * rank ** -1.5
    assert np.allclose(basis.to_modes(got), want, rtol=0, atol=1e-13)
