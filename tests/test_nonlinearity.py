"""Reaction catalog: values, analytic partials, declared bounds."""
import numpy as np
import pytest

from insens4.errors import SetupError
from insens4.nonlinearity import CATALOG_KINDS, NonlinearitySpec, make_nonlinearity


def _point(dim, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-2, 2, size=5)
    p = rng.uniform(-2, 2, size=(dim, 5))
    r = rng.uniform(-2, 2, size=(dim, dim, 5))
    return u, p, r


def test_catalog_is_complete():
    for kind in CATALOG_KINDS:
        spec = make_nonlinearity(kind, scale=0.7, dim=2)
        assert spec.name == kind
        assert spec.dim == 2


def test_unknown_kind():
    with pytest.raises(SetupError) as exc:
        make_nonlinearity("cubic")
    assert exc.value.code == "unknown-nonlinearity"


@pytest.mark.parametrize("kind,expected", [
    ("zero", lambda u, c: 0.0 * u),
    ("linear", lambda u, c: c * u),
    ("tanh", lambda u, c: c * np.tanh(u)),
    ("sin", lambda u, c: c * np.sin(u)),
    ("quadratic", lambda u, c: c * u * u),
])
def test_state_only_values(kind, expected):
    c = 1.3
    spec = make_nonlinearity(kind, scale=c)
    u, p, r = _point(1)
    assert np.allclose(spec.f(u, p, r), expected(u, c), rtol=1e-14, atol=1e-14)
    # no gradient or Hessian dependence: neither partial is declared
    assert spec.f_p is None and spec.f_r is None


def test_mixed_uses_all_slots():
    c = 0.9
    spec = make_nonlinearity("mixed", scale=c, dim=2)
    u, p, r = _point(2)
    want = c * (np.tanh(u) + np.sin(p[0]) + np.tanh(r[0, 0]))
    assert np.allclose(spec.f(u, p, r), want, rtol=1e-14, atol=1e-14)
    assert np.any(spec.f_p(u, p, r) != 0.0)
    assert np.any(spec.f_r(u, p, r) != 0.0)


@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_partials_match_finite_differences(kind):
    spec = make_nonlinearity(kind, scale=0.8, dim=2)
    u, p, r = _point(2, seed=4)
    h = 1e-6
    fd = (spec.f(u + h, p, r) - spec.f(u - h, p, r)) / (2 * h)
    assert np.allclose(spec.f_u(u, p, r), fd, rtol=1e-6, atol=1e-8)


def test_f0_is_value_at_origin():
    for kind in CATALOG_KINDS:
        spec = make_nonlinearity(kind, scale=2.0, dim=1)
        assert spec.f0 == pytest.approx(0.0, abs=1e-15)
    # a shifted handcrafted term carries its offset
    shifted = NonlinearitySpec(
        "shifted", 1,
        f=lambda u, p, r: 0.5 + 0.0 * u,
        f_u=lambda u, p, r: np.zeros_like(u),
    )
    assert shifted.f0 == pytest.approx(0.5)


def test_is_zero_flag():
    assert make_nonlinearity("zero").is_zero
    assert not make_nonlinearity("tanh").is_zero


def test_inconsistent_partials_fail_fast():
    # the catalog builder cross-checks partials before handing a spec out;
    # an absent partial is checked as zero, so dropping f_p from an F that
    # reads p fails as a wrong f_p does
    from insens4.nonlinearity import _fd_check

    wrong_state = NonlinearitySpec(
        "broken", 1,
        f=lambda u, p, r: u * u,
        f_u=lambda u, p, r: np.full_like(u, 7.0),
    )
    reads_p = NonlinearitySpec(
        "reads-p", 1,
        f=lambda u, p, r: np.sin(p[0]),
        f_u=lambda u, p, r: np.zeros_like(u),
    )
    for broken, slot in ((wrong_state, "state"), (reads_p, "gradient")):
        with pytest.raises(SetupError) as exc:
            _fd_check(broken, np.random.default_rng(0))
        assert exc.value.code == "partials-inconsistent"
        assert f"{broken.name}: {slot} partial" in str(exc.value)


@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_state_only_declaration_is_truthful(kind):
    # entries that declare no gradient or Hessian partial must not read p or r
    spec = make_nonlinearity(kind, scale=0.7, dim=2)
    assert (spec.f_p is None) == (spec.f_r is None) == (kind != "mixed")
    rng = np.random.default_rng(3)
    u = rng.uniform(-2, 2, (4,))
    p, r = rng.uniform(-2, 2, (2, 4)), rng.uniform(-2, 2, (2, 2, 4))
    moved = not np.array_equal(spec.f(u, p, r),
                               spec.f(u, np.zeros_like(p), np.zeros_like(r)))
    assert moved == (kind == "mixed")


@pytest.mark.parametrize("kind", ["tanh", "mixed"])
def test_sech_squared_partials_do_not_overflow(kind):
    # cosh(u)^2 overflows past |u| = 355; the suite turns the warning into
    # an error, so the partials must reach their limit 0 without one
    c = 0.7
    spec = make_nonlinearity(kind, scale=c, dim=1)
    u = np.concatenate([np.linspace(-1e3, 1e3, 2001), [-1e3, 1e3, 0.0]])
    p = np.zeros((1, u.size))
    r = np.broadcast_to(u, (1, 1, u.size)).copy()
    partials = [spec.f_u(u, p, r)]
    if kind == "mixed":
        partials.append(spec.f_r(u, p, r)[0, 0])
    for got in partials:
        assert np.all(np.isfinite(got))
        assert np.all((0.0 <= got) & (got <= c))
        assert got[-1] == c
        assert np.all(got[np.abs(u) >= 400] == 0.0)


def test_sech_squared_matches_cosh_form():
    # the overflow-free form 4 e^(-2|u|) / (1 + e^(-2|u|))^2 against
    # 1 / cosh(u)^2 where the latter is finite, to a few ulp (each form
    # is within 3 ulp of sech^2 on this grid; they differ by up to 6)
    u = np.linspace(-20.0, 20.0, 40001)
    spec = make_nonlinearity("tanh", scale=1.0)
    got = spec.f_u(u, None, None)
    want = 1.0 / np.cosh(u) ** 2
    assert np.all(np.abs(got - want) <= 8 * np.spacing(want))
