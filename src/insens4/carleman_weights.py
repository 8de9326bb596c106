"""Carleman weight construction and pointwise envelope verification.

The weights are built from an auxiliary profile eta that is positive
inside the domain, vanishes on the boundary, and has its only critical
point at a prescribed peak inside the inner subdomain.  On an interval
the profile is x*(L - x)*exp(k*x) with the steepness k chosen so the
critical point lands exactly on the requested peak; rectangles use a
tensor product of axis profiles.

From eta the singular space-time weights are

    alpha0 = exp(lam*(2*sup_eta + eta)) - exp(4*lam*sup_eta) < 0,
    xi0    = exp(lam*(2*sup_eta + eta)),
    alpha  = alpha0 / sqrt(t*(T - t)),   xi = xi0 / sqrt(t*(T - t)),

and every verification below works with closed-form evaluators so that
off-grid points (the peak, t = T/2) can be probed exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WeightError
from .spectral import SineBasis

__all__ = [
    "WeightProfile",
    "CarlemanWeights",
    "ObservabilityConstants",
    "CheckResult",
    "PropertyReport",
    "EnvelopeReport",
    "build_eta",
    "build_weights",
    "check_weight_properties",
    "check_envelope_bounds",
    "observability_constants",
]

# exp() overflow guard for the largest exponent appearing in the weights
_EXP_LIMIT = 700.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class PropertyReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class EnvelopeReport:
    s: float
    s_threshold: float
    checks: list[CheckResult]
    tightness_gap: float
    tightness_location: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def at_threshold(self) -> bool:
        """s sits on the threshold, the only place the envelope is tight."""
        return abs(self.s - self.s_threshold) <= 1e-12 * self.s_threshold

    @property
    def tight(self) -> bool:
        """Tightness verdict: gap <= 1e-9 at the threshold, else a pass.

        Above the threshold the probe is informative only.
        """
        return not self.at_threshold or self.tightness_gap <= 1e-9


def _axis_profile(x, length: float, k: float):
    """eta along one axis; accepts real or complex x for step checks."""
    return x * (length - x) * np.exp(k * x)


def _axis_profile_d1(x, length: float, k: float):
    return np.exp(k * x) * ((length - 2 * x) + k * x * (length - x))


@dataclass
class WeightProfile:
    """Auxiliary spatial profile with a unique interior critical point."""

    basis: SineBasis
    peak: tuple[float, ...]
    steepness: tuple[float, ...]
    values: np.ndarray = field(repr=False)
    sup: float
    min_grad_outside: float

    def _axes(self, fn, coords) -> list:
        return [fn(x, length, k)
                for x, length, k in zip(coords, self.basis.extents, self.steepness)]

    def value_at(self, coords):
        """eta at per-axis coordinates that broadcast: a point, a
        complex-step point or ``basis.mesh()``."""
        return math.prod(self._axes(_axis_profile, coords))

    def grad_at(self, coords) -> np.ndarray:
        """grad eta, components first, at coordinates as in ``value_at``."""
        vals = self._axes(_axis_profile, coords)
        d1 = self._axes(_axis_profile_d1, coords)
        return np.array([math.prod(vals[:ax] + [d] + vals[ax + 1:])
                         for ax, d in enumerate(d1)])


def build_eta(
    basis: SineBasis,
    omega0_support: np.ndarray,
    peak: tuple[float, ...] | None = None,
) -> WeightProfile:
    """Construct the auxiliary profile for a given inner subdomain.

    Parameters
    ----------
    basis : SineBasis
        Spatial discretization.
    omega0_support : ndarray of bool
        Node indicator of the inner subdomain omega0.
    peak : tuple of float, optional
        Requested critical point; defaults to the centroid of the
        support nodes.  Must lie inside the support hull.

    Raises
    ------
    WeightError
        ``critical-point-outside-omega0`` if the peak leaves the support
        hull, ``eta-degenerate`` if the closed-form steepness misses the
        critical point or the gradient vanishes at any node outside the
        support.
    """
    support = np.asarray(omega0_support, dtype=bool)
    if not support.any():
        raise WeightError("empty-mask", "inner subdomain has no support nodes")
    dim = basis.dim

    # support hull per axis, widened by half a cell
    hull = []
    for ax in range(dim):
        proj = support if dim == 1 else support.any(axis=1 - ax)
        nodes = basis.nodes[ax][proj]
        half = basis.extents[ax] / basis.n_cells / 2
        hull.append((nodes.min() - half, nodes.max() + half))
    if peak is None:
        peak = tuple((lo + hi) / 2 for lo, hi in hull)
    peak = tuple(float(c) for c in np.atleast_1d(peak))
    for ax, c in enumerate(peak):
        lo, hi = hull[ax]
        if not (lo < c < hi):
            raise WeightError(
                "critical-point-outside-omega0",
                f"peak coordinate {c} outside support hull ({lo}, {hi}) on axis {ax}",
            )

    # steepness per axis from the critical-point condition eta'(c) = 0,
    # checked on eta' itself with its exp(k c) factor divided out
    steepness = []
    for ax, c in enumerate(peak):
        L = basis.extents[ax]
        k = (2 * c - L) / (c * (L - c))
        resid = _axis_profile_d1(c, L, k) / np.exp(k * c)
        if not (np.isfinite(k) and abs(resid) <= 1e-12 * L):
            raise WeightError(
                "eta-degenerate",
                f"steepness {k} misses the critical point on axis {ax} "
                f"(residual {resid})",
            )
        steepness.append(k)
    steepness = tuple(steepness)

    profile = WeightProfile(basis=basis, peak=peak, steepness=steepness,
                            values=None, sup=math.nan, min_grad_outside=math.nan)
    mesh = basis.mesh()
    values = profile.value_at(mesh)
    grad = profile.grad_at(mesh)
    sup = float(profile.value_at(peak))

    if np.any(values <= 0):
        raise WeightError("eta-degenerate", "profile not positive on interior nodes")
    if sup < values.max():
        raise WeightError("eta-degenerate", "peak value below a grid value")
    grad_mag = np.sqrt(np.sum(grad**2, axis=0))
    outside = ~support
    min_grad_outside = float(grad_mag[outside].min()) if outside.any() else np.inf
    if not (min_grad_outside > 0):
        raise WeightError(
            "eta-degenerate",
            "gradient vanishes at a node outside the inner subdomain",
        )

    profile.values, profile.sup = values, sup
    profile.min_grad_outside = min_grad_outside
    return profile


@dataclass
class CarlemanWeights:
    """Singular weights alpha, xi with closed-form extremes.

    Attributes
    ----------
    ext_alpha_min, ext_alpha_max : float
        Extremes m0 <= alpha0 <= M0 < 0 (boundary and peak values).
    ext_xi_min, ext_xi_max : float
        Extremes n0 <= xi0 <= N0.
    """

    profile: WeightProfile
    lam: float
    t_final: float
    sup_eta: float
    ext_alpha_min: float   # m0
    ext_alpha_max: float   # M0 < 0
    ext_xi_min: float      # n0
    ext_xi_max: float      # N0
    alpha0: np.ndarray = field(repr=False)
    xi0: np.ndarray = field(repr=False)

    @property
    def s_threshold(self) -> float:
        """Admissibility threshold 4*T/|M0| for the sup envelope."""
        return 4.0 * self.t_final / abs(self.ext_alpha_max)

    def sigma(self, t):
        """sqrt(t*(T - t)); the singular time factor."""
        return np.sqrt(t * (self.t_final - t))

    def xi_grid(self, t: float) -> np.ndarray:
        return self.xi0 / self.sigma(t)

    def alpha_t_grid(self, t: float) -> np.ndarray:
        # d/dt of sigma^-1 is (2t - T) / (2 sigma^3)
        return self.alpha0 * (2 * t - self.t_final) / (2 * self.sigma(t) ** 3)

    def xi_t_grid(self, t: float) -> np.ndarray:
        return self.xi0 * (2 * t - self.t_final) / (2 * self.sigma(t) ** 3)

    def xi0_value(self, eta_value):
        return np.exp(self.lam * (2 * self.sup_eta + eta_value))

    def alpha0_value(self, eta_value):
        return self.xi0_value(eta_value) - np.exp(4 * self.lam * self.sup_eta)


def build_weights(profile: WeightProfile, lam: float, t_final: float) -> CarlemanWeights:
    """Exponentiate the profile into the singular Carleman weights.

    Raises
    ------
    WeightError
        ``lambda-inadmissible`` for lam < 1, ``lambda-too-large`` when
        exp(4*lam*sup_eta) would overflow.
    """
    if lam < 1:
        raise WeightError("lambda-inadmissible", f"lam = {lam} is below 1")
    if t_final <= 0:
        raise WeightError("horizon-inadmissible", f"T = {t_final} must be positive")
    if 4 * lam * profile.sup > _EXP_LIMIT:
        raise WeightError(
            "lambda-too-large",
            f"4*lam*sup_eta = {4 * lam * profile.sup:.3f} exceeds the "
            f"exp overflow guard {_EXP_LIMIT}",
        )
    sup = profile.sup
    xi0 = np.exp(lam * (2 * sup + profile.values))
    top = np.exp(4 * lam * sup)
    alpha0 = xi0 - top
    n0 = float(np.exp(2 * lam * sup))
    big_n0 = float(np.exp(3 * lam * sup))
    return CarlemanWeights(
        profile=profile, lam=lam, t_final=float(t_final), sup_eta=sup,
        ext_alpha_min=n0 - top, ext_alpha_max=big_n0 - top,
        ext_xi_min=n0, ext_xi_max=big_n0,
        alpha0=alpha0, xi0=xi0,
    )


def _complex_step_grad(weights: CarlemanWeights, fn, point) -> np.ndarray:
    """Derivative of a closed-form scalar evaluator by complex step."""
    h = 1e-100
    point = np.atleast_1d(np.asarray(point, dtype=float))
    out = []
    for ax in range(point.size):
        z = point.astype(complex)
        z[ax] += 1j * h
        out.append(np.imag(fn(weights.profile.value_at(z))) / h)
    return np.asarray(out)


def check_weight_properties(weights: CarlemanWeights, times: np.ndarray) -> PropertyReport:
    """Verify the pointwise weight properties on the space-time grid.

    Checks the range of alpha0 and xi0 against their closed-form
    extremes, the gradient identity grad alpha = grad xi = lam*xi*grad eta
    (complex-step differentiation of the evaluators), the bound
    1/xi <= T/2, the time-derivative bound |alpha_t| + |xi_t| <=
    (T/2)*xi^3, and that alpha_t, xi_t vanish at t = T/2 exactly.
    """
    w = weights
    T = w.t_final
    tol = 1e-12
    checks: list[CheckResult] = []

    a_lo = (w.alpha0 - w.ext_alpha_min).min()
    a_hi = (w.ext_alpha_max - w.alpha0).min()
    checks.append(CheckResult(
        "alpha0-range",
        bool(a_lo >= -tol * abs(w.ext_alpha_min)
             and a_hi >= -tol * abs(w.ext_alpha_max)
             and w.ext_alpha_max < 0),
        float(min(a_lo, a_hi)),
        "m0 <= alpha0 <= M0 < 0",
    ))

    x_lo = (w.xi0 - w.ext_xi_min).min()
    x_hi = (w.ext_xi_max - w.xi0).min()
    checks.append(CheckResult(
        "xi0-range",
        bool(x_lo >= -tol * w.ext_xi_min and x_hi >= -tol * w.ext_xi_max
             and w.ext_xi_min > 0),
        float(min(x_lo, x_hi)),
        "n0 <= xi0 <= N0",
    ))

    # gradient identity at a spread of probe points (grid nodes and peak)
    basis = w.profile.basis
    probes = [w.profile.peak]
    for i in (1, basis.shape[0] // 3, basis.shape[0] - 2):
        probes.append(tuple(nodes[i] for nodes in basis.nodes))
    worst = 0.0
    for pt in probes:
        eta_v = w.profile.value_at(pt)
        xi_v = w.xi0_value(eta_v)
        expected = w.lam * xi_v * w.profile.grad_at(pt)
        got_a = _complex_step_grad(w, w.alpha0_value, pt)
        got_x = _complex_step_grad(w, w.xi0_value, pt)
        scale = abs(w.lam * xi_v) * (1 + np.abs(w.profile.grad_at(pt)).max())
        worst = max(worst,
                    np.abs(got_a - expected).max() / scale,
                    np.abs(got_x - expected).max() / scale)
    checks.append(CheckResult(
        "gradient-identity", bool(worst <= 1e-10), float(worst),
        "grad alpha = grad xi = lam*xi*grad eta (complex step)",
    ))

    sig = w.sigma(times)
    inv_xi_max = float((sig.max() / w.xi0.min()))
    checks.append(CheckResult(
        "xi-inverse", bool(inv_xi_max <= T / 2 * (1 + tol)),
        float(T / 2 - inv_xi_max), "1/xi <= T/2",
    ))

    worst_td = np.inf
    for t in times:
        lhs = np.abs(w.alpha_t_grid(t)) + np.abs(w.xi_t_grid(t))
        rhs = (T / 2) * w.xi_grid(t) ** 3
        worst_td = min(worst_td, float(((rhs - lhs) / rhs).min()))
    checks.append(CheckResult(
        "time-derivative", bool(worst_td >= -tol), float(worst_td),
        "|alpha_t| + |xi_t| <= (T/2)*xi^3",
    ))

    mid = np.abs(w.alpha_t_grid(T / 2)).max() + np.abs(w.xi_t_grid(T / 2)).max()
    checks.append(CheckResult(
        "stationary-at-midtime", bool(mid == 0.0), float(mid),
        "alpha_t = xi_t = 0 at t = T/2",
    ))

    return PropertyReport(checks)


def _admissible_threshold(w: CarlemanWeights, s: float) -> float:
    """The threshold 4T/|M0|; raises ``s-below-threshold`` when s is below it."""
    thr = w.s_threshold
    if s < thr * (1 - 1e-12):
        raise WeightError(
            "s-below-threshold",
            f"s = {s} is below the admissibility threshold 4*T/|M0| = {thr}",
            threshold=thr, s=s,
        )
    return thr


def _log_envelope_parts(w: CarlemanWeights, s: float, times: np.ndarray):
    """Log-space values of s*xi, 2*s*alpha on the grid, per time node."""
    log_s_xi = np.log(s) + np.log(w.xi0)
    for t in times:
        sig = float(w.sigma(t))
        yield t, log_s_xi - np.log(sig), 2 * s * w.alpha0 / sig


def check_envelope_bounds(weights: CarlemanWeights, s: float, times: np.ndarray) -> EnvelopeReport:
    """Verify the three pointwise envelope bounds for the weight powers.

    (1) s^16 xi^16 exp(2 s alpha) is bounded by 2^48 (N0/(|M0| e))^16
        uniformly on the grid, with equality (up to rounding) at the
        profile peak and t = T/2 when s sits exactly on the threshold
        4T/|M0|;
    (2) s^6 xi^6 exp(2 s alpha) >= A_s exp(-M_s/sqrt(t)) on t < T/2 with
        A_s = (2 s n0)^6 T^-6 exp(-2|m0| s/T), M_s = 2 |m0| s / sqrt(T);
    (3) xi^-6 exp(-2 s alpha) <= (2 n0)^-6 T^6 exp(8 |m0| s / sqrt(3T))
        on T/4 < t < 3T/4.

    All comparisons run in log space so singular-time underflow cannot
    mask a violation.

    Raises
    ------
    WeightError
        ``s-below-threshold`` when s < 4T/|M0| (context carries the
        threshold value).
    """
    w = weights
    T = w.t_final
    thr = _admissible_threshold(w, s)
    tol = 1e-12
    m0 = abs(w.ext_alpha_min)
    n0 = w.ext_xi_min
    big_n0 = w.ext_xi_max
    big_m0 = abs(w.ext_alpha_max)
    checks: list[CheckResult] = []

    # (1) uniform sup bound
    log_rhs1 = 48 * np.log(2.0) + 16 * (np.log(big_n0) - np.log(big_m0) - 1.0)
    worst1 = np.inf
    for _t, log_s_xi, two_s_alpha in _log_envelope_parts(w, s, times):
        log_lhs = 16 * log_s_xi + two_s_alpha
        worst1 = min(worst1, float((log_rhs1 - log_lhs).min()))
    checks.append(CheckResult(
        "sup-envelope", bool(worst1 >= -tol), float(worst1),
        "log margin of s^16 xi^16 exp(2 s alpha) under its uniform bound",
    ))

    # tightness probe at the closed-form maximizer (peak, T/2), off grid
    sig_mid = T / 2
    log_lhs_peak = 16 * (np.log(s) + np.log(big_n0) - np.log(sig_mid)) \
        + 2 * s * w.ext_alpha_max / sig_mid
    gap = float(abs(np.expm1(log_lhs_peak - log_rhs1)))

    # (2) early-window lower bound
    log_a_s = 6 * (np.log(2 * s * n0) - np.log(T)) - 2 * m0 * s / T
    rate = 2 * m0 * s / np.sqrt(T)
    worst2 = np.inf
    for t, log_s_xi, two_s_alpha in _log_envelope_parts(w, s, times):
        if t >= T / 2:
            continue
        log_lhs = 6 * log_s_xi + two_s_alpha
        log_rhs = log_a_s - rate / np.sqrt(t)
        worst2 = min(worst2, float((log_lhs - log_rhs).min()))
    checks.append(CheckResult(
        "early-lower-envelope", bool(worst2 >= -tol), float(worst2),
        "log margin of s^6 xi^6 exp(2 s alpha) over its early-time floor",
    ))

    # (3) middle-window upper bound
    log_rhs3 = -6 * np.log(2 * n0) + 6 * np.log(T) + 8 * m0 * s / np.sqrt(3 * T)
    worst3 = np.inf
    for t, log_s_xi, two_s_alpha in _log_envelope_parts(w, s, times):
        if not (T / 4 < t < 3 * T / 4):
            continue
        log_xi = log_s_xi - np.log(s)
        log_lhs = -6 * log_xi - two_s_alpha
        worst3 = min(worst3, float((log_rhs3 - log_lhs).min()))
    checks.append(CheckResult(
        "mid-window-envelope", bool(worst3 >= -tol), float(worst3),
        "log margin of xi^-6 exp(-2 s alpha) under its mid-window bound",
    ))

    return EnvelopeReport(
        s=float(s), s_threshold=float(thr), checks=checks,
        tightness_gap=gap,
        tightness_location=(w.profile.peak, T / 2),
    )


@dataclass
class ObservabilityConstants:
    """Constants of the observability estimate for the adjoint pair.

    ``rate_m`` is the rate M in the singular weight exp(M/sqrt(t)) and
    ``cost_h`` is the observability factor H multiplying the observed
    energy; both are explicit in the weight extremes, s, beta, and T.
    """

    s: float
    s_threshold: float
    lam: float
    beta: float
    rate_m: float
    cost_h: float
    c_proxy: float
    term_sup: float
    term_window: float
    overflowed: bool


def observability_constants(
    weights: CarlemanWeights,
    s: float,
    sup_norms: dict[str, float],
    c_proxy: float = 1.0,
) -> ObservabilityConstants:
    """Assemble the explicit observability constants.

    Parameters
    ----------
    sup_norms : dict
        Sup norms of the lower-order coefficients by role, ``a0``,
        ``b0``, ``b``, ``a1`` (a missing role counts as zero).

    Notes
    -----
    beta = 2 + |a0|^2 + |b0|^2 + |b|^2 + |a1|^2 and

    H = C * 2^48 (N0/(|M0| e))^16
        + C * 2^42 (N0/(|M0| e))^16 * exp(2 beta T + 8|m0| s / sqrt(3T))
          * n0^-6 * T^6,

    with C the caller-supplied proxy for the non-explicit compactness
    constant.  The second term is assembled in log space; if it still
    overflows, ``cost_h`` is +inf and ``overflowed`` is set rather than
    raising, since downstream checks only report the bound.
    """
    w = weights
    T = w.t_final
    thr = _admissible_threshold(w, s)
    beta = 2.0 + sum(float(v) ** 2 for v in sup_norms.values())
    m0 = abs(w.ext_alpha_min)
    rate_m = 2 * m0 * s / np.sqrt(T)

    log_core = 16 * (np.log(w.ext_xi_max) - np.log(abs(w.ext_alpha_max)) - 1.0)
    log_t1 = np.log(c_proxy) + 48 * np.log(2.0) + log_core
    log_t2 = (
        np.log(c_proxy) + 42 * np.log(2.0) + log_core
        + 2 * beta * T + 8 * m0 * s / np.sqrt(3 * T)
        - 6 * np.log(w.ext_xi_min) + 6 * np.log(T)
    )
    overflowed = bool(max(log_t1, log_t2) > _EXP_LIMIT)
    term_sup = float("inf") if log_t1 > _EXP_LIMIT else float(np.exp(log_t1))
    term_window = float("inf") if log_t2 > _EXP_LIMIT else float(np.exp(log_t2))
    return ObservabilityConstants(
        s=float(s), s_threshold=float(thr), lam=w.lam, beta=float(beta),
        rate_m=float(rate_m), cost_h=term_sup + term_window,
        c_proxy=float(c_proxy), term_sup=term_sup, term_window=term_window,
        overflowed=overflowed,
    )
