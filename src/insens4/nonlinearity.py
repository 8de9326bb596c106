"""Semilinear reaction terms F(u, grad u, hess u) with analytic partials.

Each catalog entry bundles the scalar evaluator with its partial
derivatives in the state slot and in whichever of the gradient and
Hessian slots it reads.  Partials are cross-checked against central
finite differences at construction, so a mistyped derivative fails fast
instead of corrupting a linearization downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SetupError
from .spectral import SineBasis

__all__ = ["NonlinearitySpec", "make_nonlinearity", "CATALOG_KINDS"]

Array = np.ndarray

CATALOG_KINDS = ("zero", "linear", "tanh", "sin", "quadratic", "mixed")


@dataclass
class NonlinearitySpec:
    """Reaction term F together with its analytic partial derivatives.

    ``f(u, p, r)`` takes the state u with shape S, the gradient stack p
    with shape (dim, *S) and the Hessian stack r with shape (dim, dim, *S),
    and returns an array of shape S.  ``f_u``, ``f_p``, ``f_r`` return the
    partials with shapes S, (dim, *S) and (dim, dim, *S).  An absent
    ``f_p`` or ``f_r`` says that F does not read that slot: callers pass
    None there and compute neither the slot nor its coefficients.
    """

    name: str
    dim: int
    f: Callable[[Array, Array, Array], Array]
    f_u: Callable[[Array, Array, Array], Array]
    f_p: Callable[[Array, Array, Array], Array] | None = None
    f_r: Callable[[Array, Array, Array], Array] | None = None
    f0: float = field(init=False)

    def __post_init__(self):
        z = np.zeros(1)
        zp = np.zeros((self.dim, 1))
        zr = np.zeros((self.dim, self.dim, 1))
        self.f0 = float(self.f(z, zp, zr)[0])

    @property
    def is_zero(self) -> bool:
        return self.name == "zero"

    def jet(self, basis: SineBasis,
            u: Array) -> tuple[Array, Array | None, Array | None]:
        """(u, grad u, hess u) with each slot F does not read left None.

        The gradient and Hessian stacks put their component axes first,
        ahead of any leading axes of u.
        """
        return (u, None if self.f_p is None else basis.gradient(u),
                None if self.f_r is None else basis.hessian(u))


def _fd_check(spec: NonlinearitySpec, rng: np.random.Generator, tol: float = 1e-6):
    """Cross-check analytic partials against central differences.

    An absent partial is checked as zero, so a spec that drops one for a
    slot its F reads fails here.
    """
    n = spec.dim
    h = 1e-6
    for _ in range(8):
        u = rng.uniform(-2.0, 2.0, size=1)
        p = rng.uniform(-2.0, 2.0, size=(n, 1))
        r = rng.uniform(-2.0, 2.0, size=(n, n, 1))
        fu = spec.f_u(u, p, r)[0]
        fd = (spec.f(u + h, p, r)[0] - spec.f(u - h, p, r)[0]) / (2 * h)
        if abs(fu - fd) > tol * (1 + abs(fd)):
            raise SetupError(
                "partials-inconsistent",
                f"{spec.name}: state partial {fu} vs finite difference {fd}",
            )
        fp = np.zeros_like(p) if spec.f_p is None else spec.f_p(u, p, r)
        for i in range(n):
            e = np.zeros_like(p)
            e[i] = h
            fd = (spec.f(u, p + e, r)[0] - spec.f(u, p - e, r)[0]) / (2 * h)
            if abs(fp[i, 0] - fd) > tol * (1 + abs(fd)):
                raise SetupError(
                    "partials-inconsistent",
                    f"{spec.name}: gradient partial {i} ({fp[i, 0]} vs {fd})",
                )
        fr = np.zeros_like(r) if spec.f_r is None else spec.f_r(u, p, r)
        for i in range(n):
            for j in range(n):
                e = np.zeros_like(r)
                e[i, j] = h
                fd = (spec.f(u, p, r + e)[0] - spec.f(u, p, r - e)[0]) / (2 * h)
                if abs(fr[i, j, 0] - fd) > tol * (1 + abs(fd)):
                    raise SetupError(
                        "partials-inconsistent",
                        f"{spec.name}: hessian partial ({i},{j}) "
                        f"({fr[i, j, 0]} vs {fd})",
                    )


def _sech2(u: np.ndarray) -> np.ndarray:
    """sech(u)^2 = 4 e^(-2|u|) / (1 + e^(-2|u|))^2, which cannot overflow:
    at large |u| the exponential underflows to the right value, 0."""
    e = np.exp(-2.0 * np.abs(u))
    return 4.0 * e / (1.0 + e) ** 2


def make_nonlinearity(kind: str, scale: float = 1.0, dim: int = 1) -> NonlinearitySpec:
    """Build a catalog entry.

    Kinds
    -----
    zero       F = 0
    linear     F = c*u
    tanh       F = c*tanh(u), globally Lipschitz with constant c
    sin        F = c*sin(u), globally Lipschitz with constant c
    quadratic  F = c*u^2, Lipschitz only on bounded sets
    mixed      F = c*(tanh(u) + sin(p_1) + tanh(r_11))
    """
    c = float(scale)
    n = int(dim)

    if kind == "zero":
        spec = NonlinearitySpec(
            "zero", n,
            f=lambda u, p, r: np.zeros_like(u),
            f_u=lambda u, p, r: np.zeros_like(u),
        )
    elif kind == "linear":
        spec = NonlinearitySpec(
            "linear", n,
            f=lambda u, p, r: c * u,
            f_u=lambda u, p, r: np.full_like(u, c),
        )
    elif kind == "tanh":
        spec = NonlinearitySpec(
            "tanh", n,
            f=lambda u, p, r: c * np.tanh(u),
            f_u=lambda u, p, r: c * _sech2(u),
        )
    elif kind == "sin":
        spec = NonlinearitySpec(
            "sin", n,
            f=lambda u, p, r: c * np.sin(u),
            f_u=lambda u, p, r: c * np.cos(u),
        )
    elif kind == "quadratic":
        spec = NonlinearitySpec(
            "quadratic", n,
            f=lambda u, p, r: c * u * u,
            f_u=lambda u, p, r: 2 * c * u,
        )
    elif kind == "mixed":
        def f(u, p, r):
            return c * (np.tanh(u) + np.sin(p[0]) + np.tanh(r[0, 0]))

        def f_u(u, p, r):
            return c * _sech2(u)

        def f_p(u, p, r):
            out = np.zeros_like(p)
            out[0] = c * np.cos(p[0])
            return out

        def f_r(u, p, r):
            out = np.zeros_like(r)
            out[0, 0] = c * _sech2(r[0, 0])
            return out

        spec = NonlinearitySpec("mixed", n, f=f, f_u=f_u, f_p=f_p, f_r=f_r)
    else:
        raise SetupError("unknown-nonlinearity", f"no catalog entry named {kind!r}")

    _fd_check(spec, np.random.default_rng(np.random.Philox(17)))
    return spec
