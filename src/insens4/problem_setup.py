"""Grids, subdomain masks, coefficients, and sealed problem instances.

The verification pipeline wants every ingredient checked once, up front,
and then frozen: masks are sharp node indicators built from boxes,
coefficient fields carry declared sup bounds that must dominate their
sampled values, the force must switch on strictly after t = 0 so its
singular-weighted energy is finite, and the scalar parameters must be
finite.  ``validate_problem`` runs all of these checks, builds the
Carleman weights and observability constants for the instance, and
returns an immutable bundle.  Every state march starts at zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import carleman_weights as cw
from .errors import SetupError
from .nonlinearity import NonlinearitySpec, make_nonlinearity
from .spectral import SineBasis

__all__ = [
    "Grid",
    "SubdomainMask",
    "CoefficientField",
    "ProblemConfig",
    "ValidatedProblem",
    "build_grid",
    "build_mask",
    "validate_problem",
]

Array = np.ndarray
# The lower-order coefficient roles in operator order, each with the number
# of component axes it carries: a0 and a1 are scalars, b0 a vector of length
# dim, b a dim-by-dim matrix.
ROLE_AXES = {"a0": 0, "b0": 1, "b": 2, "a1": 0}


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass
class Grid:
    """Uniform space-time grid; spatial fields live on interior nodes."""

    dim: int
    extents: tuple[float, ...]
    n_cells: int
    t_final: float
    n_steps: int
    basis: SineBasis = field(repr=False)
    dt: float
    times: np.ndarray = field(repr=False)  # midpoint nodes (j + 1/2) dt

    @property
    def shape(self) -> tuple[int, ...]:
        return self.basis.shape


def build_grid(
    dimension: int,
    extents: float | tuple[float, ...],
    n_cells: int,
    t_final: float,
    n_steps: int,
) -> Grid:
    """Build the grid; interior nodes number ``n_cells - 1`` per axis.

    Raises
    ------
    SetupError
        ``grid-too-coarse`` for n_cells < 8 or n_steps < 16,
        ``grid-dimension`` for dimensions other than 1 and 2.
    """
    if dimension not in (1, 2):
        raise SetupError("grid-dimension", f"dimension {dimension} not supported")
    if np.isscalar(extents):
        extents = (float(extents),) * dimension
    extents = tuple(float(L) for L in extents)
    if len(extents) != dimension or any(L <= 0 for L in extents):
        raise SetupError("grid-dimension", f"bad extents {extents}")
    if n_cells < 8 or n_steps < 16:
        raise SetupError(
            "grid-too-coarse",
            f"need n_cells >= 8 and n_steps >= 16, got {n_cells}, {n_steps}",
        )
    if t_final <= 0:
        raise SetupError("grid-dimension", f"t_final = {t_final} must be positive")
    basis = SineBasis(extents, n_cells)
    dt = t_final / n_steps
    times = (np.arange(n_steps) + 0.5) * dt
    return Grid(
        dim=dimension, extents=extents, n_cells=int(n_cells),
        t_final=float(t_final), n_steps=int(n_steps),
        basis=basis, dt=dt, times=_freeze(times),
    )


@dataclass
class SubdomainMask:
    """Node indicator of a union of boxes; sharp masks are exactly 0/1.

    ``box`` is the bounding box of ``support`` in node indices, one slice
    per axis: every nonzero value lies in ``values[box]``.
    """

    values: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)
    box: tuple[slice, ...]


def _normalize_boxes(boxes, dim: int):
    if dim == 1 and boxes and np.isscalar(boxes[0]):
        boxes = [tuple(boxes)]
    out = []
    for box in boxes:
        if dim == 1:
            lo, hi = box
            out.append(((float(lo), float(hi)),))
        else:
            out.append(tuple((float(lo), float(hi)) for lo, hi in box))
    return tuple(out)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic ramp, C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10 - 15 * t + 6 * t * t)


def build_mask(grid: Grid, boxes, label: str = "", smooth: bool = False) -> SubdomainMask:
    """Indicator of a union of open boxes on the interior nodes.

    Sharp masks (default) are exactly one at nodes strictly inside a box
    and zero elsewhere.  With ``smooth=True`` each box edge carries a
    quintic ramp over two cells (or half the box, if that is shorter)
    instead, so at least one node lies strictly inside each ramp even when
    the edge is a node; the support is the sharp mask's.  ``label`` names
    the mask in errors.

    Raises
    ------
    SetupError
        ``box-outside-domain`` when a box leaves [0, L] on some axis,
        ``empty-mask`` when no node falls in any box.
    """
    basis = grid.basis
    norm = _normalize_boxes(boxes, grid.dim)
    if not norm:
        raise SetupError("empty-mask", f"mask {label!r} has no boxes")
    for box in norm:
        for ax, (lo, hi) in enumerate(box):
            L = basis.extents[ax]
            if not (0.0 <= lo < hi <= L):
                raise SetupError(
                    "box-outside-domain",
                    f"mask {label!r}: interval ({lo}, {hi}) outside [0, {L}] on axis {ax}",
                )
    values = np.zeros(basis.shape)
    for box in norm:
        box_vals = np.ones(basis.shape)
        for ax, (lo, hi) in enumerate(box):
            x = basis.nodes[ax]
            h = basis.extents[ax] / basis.n_cells
            ramp = min(2 * h, (hi - lo) / 2)
            if smooth:
                ax_vals = _smoothstep((x - lo) / ramp) * _smoothstep((hi - x) / ramp)
            else:
                ax_vals = ((x > lo) & (x < hi)).astype(float)
            shape = [1] * grid.dim
            shape[ax] = x.size
            box_vals = box_vals * ax_vals.reshape(shape)
        values = np.maximum(values, box_vals)
    support = values > 0
    if not support.any():
        raise SetupError("empty-mask", f"mask {label!r} covers no interior node")
    box = []
    for ax in range(grid.dim):
        others = tuple(a for a in range(grid.dim) if a != ax)
        hit = np.flatnonzero(support.any(axis=others))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return SubdomainMask(values=_freeze(values), support=_freeze(support),
                         box=tuple(box))


def _dilate(mask: np.ndarray, margin: int) -> np.ndarray:
    """``mask`` dilated ``margin`` times by the 3^d box, zero past the edge.

    The box is the product of one 3-node segment per axis, so each
    dilation is one shift-and-or along every axis in turn.
    """
    out = np.array(mask, dtype=bool)
    for _ in range(margin):
        for ax in range(out.ndim):
            view = np.moveaxis(out, ax, 0)
            src = view.copy()
            view[1:] |= src[:-1]
            view[:-1] |= src[1:]
    return out


def _contained_with_margin(inner: np.ndarray, outer: np.ndarray, margin: int = 1) -> bool:
    """Inner support, dilated by ``margin`` nodes, stays inside outer."""
    inner_p = np.pad(inner, margin)
    outer_p = np.pad(outer, margin)
    return bool(np.all(outer_p[_dilate(inner_p, margin)]))


@dataclass
class CoefficientField:
    """One lower-order coefficient with a declared sup bound.

    ``ROLE_AXES`` gives each role's component axes; evaluators return the
    component stack with spatial axes last; a callable may depend on x and t.
    """

    role: str
    evaluator: Callable | np.ndarray
    sup_declared: float

    @staticmethod
    def constant(role: str, value, dim: int = 1) -> "CoefficientField":
        value = np.asarray(value, dtype=float)
        expected = (dim,) * ROLE_AXES[role]
        if value.shape != expected:
            raise SetupError(
                "coefficient-shape",
                f"role {role!r} expects shape {expected}, got {value.shape}",
            )
        # a norm that overflows is infinite, which validate_problem rejects
        with np.errstate(over="ignore"):
            sup = float(np.sqrt(np.sum(value**2)))
        return CoefficientField(role, value, sup)

    @staticmethod
    def from_callable(role: str, fn: Callable,
                      sup_declared: float) -> "CoefficientField":
        return CoefficientField(role, fn, float(sup_declared))

    def eval(self, basis: SineBasis, t: float) -> np.ndarray:
        dim = basis.dim
        lead = (dim,) * ROLE_AXES[self.role]
        if callable(self.evaluator):
            out = self.evaluator(*basis.mesh(), t)
        else:
            out = np.reshape(self.evaluator, lead + (1,) * dim)
        return np.broadcast_to(np.asarray(out, dtype=float), lead + basis.shape)

    def at_nodes(self, grid: Grid) -> np.ndarray:
        """Values at the midpoint nodes, each callable evaluated once per node.

        One node's (lead, *shape) values for a constant or for a callable
        whose rows are all equal (a copy of its one row, so that the stack
        is freed), else the (Nt, lead, *shape) stack.
        """
        if not callable(self.evaluator):
            return self.eval(grid.basis, grid.times[0])
        stack = np.stack([self.eval(grid.basis, t) for t in grid.times])
        return stack[0].copy() if np.all(stack == stack[0]) else stack

    def pointwise_magnitude(self, values: np.ndarray) -> np.ndarray:
        lead = ROLE_AXES[self.role]
        if lead == 0:
            return np.abs(values)
        return np.sqrt(np.sum(values**2, axis=tuple(range(lead))))


@dataclass
class ProblemConfig:
    """Mutable builder for a problem instance; seal with validate_problem."""

    grid: Grid
    omega: SubdomainMask
    obs: SubdomainMask
    omega0: SubdomainMask
    a0: CoefficientField | None = None
    b0: CoefficientField | None = None
    b: CoefficientField | None = None
    a1: CoefficientField | None = None
    force: np.ndarray | None = None  # (Nt, *shape) values at the midpoint nodes
    force_onset: float = 0.0
    epsilon: float = 1e-3
    lam: float = 1.0
    s: float | None = None
    s_factor: float = 1.0
    c_proxy: float = 1.0
    eta_peak: tuple[float, ...] | None = None
    nonlinearity: NonlinearitySpec | None = None


@dataclass(frozen=True)
class ValidatedProblem:
    """Sealed problem instance; all arrays are read-only."""

    grid: Grid
    omega: SubdomainMask
    obs: SubdomainMask
    omega0: SubdomainMask
    coefficients: dict   # role -> CoefficientField.at_nodes values, or None
    sup_norms: dict
    force_fields: np.ndarray
    epsilon: float
    nonlinearity: NonlinearitySpec
    profile: cw.WeightProfile
    weights: cw.CarlemanWeights
    constants: cw.ObservabilityConstants
    force_weight_integral: float

    @property
    def basis(self) -> SineBasis:
        return self.grid.basis


def _materialize_force(grid: Grid, force: np.ndarray | None) -> np.ndarray:
    """A float copy of the (Nt, *shape) force, zeros when absent."""
    expected = (grid.n_steps,) + grid.shape
    if force is None:
        return np.zeros(expected)
    out = np.asarray(force)
    if out.shape != expected:
        raise SetupError(
            "force-shape",
            f"force array must have shape {expected}, got {out.shape}",
        )
    return out.astype(float)


def validate_problem(config: ProblemConfig) -> ValidatedProblem:
    """Check, complete, and seal a problem instance.

    Verifies that the scalar parameters are finite, epsilon, lam, s_factor
    and c_proxy positive and s not negative (None or 0 picks it from the
    threshold), the mask geometry (omega and the observation set
    overlap, the inner subdomain sits inside the overlap with a one-cell
    margin), asserts every declared coefficient bound against sampled
    values on the grid, checks the force switches on strictly after t = 0
    and that its singular-weighted energy integral is finite, and builds
    the Carleman weights and observability constants.  Every march of the
    state starts at y = 0.

    Raises
    ------
    SetupError
        ``parameter-nonfinite`` and ``parameter-nonpositive`` (with the
        ``key``), ``disjoint-omega-obs``, ``omega0-margin``,
        ``declared-bound-violated``, ``coefficient-nonfinite``,
        ``force-nonfinite``, ``force-onset``, ``force-weight-divergent``,
        ``eta-peak-shape``, ``eta-peak-outside-domain``.
    """
    grid = config.grid
    basis = grid.basis
    for key in ("epsilon", "lam", "s", "s_factor", "c_proxy", "force_onset"):
        value = getattr(config, key)
        name = "lambda" if key == "lam" else key   # as the config spells it
        # a NaN passes every comparison below and reaches the constants
        if value is not None and not math.isfinite(value):
            raise SetupError("parameter-nonfinite", f"{name} = {value} is not "
                             "finite", key=key)
        if key == "s" and value is not None and value < 0:
            raise SetupError("parameter-nonpositive", f"s = {value} must not "
                             "be negative (0 picks the threshold)", key=key)
        if key in ("epsilon", "lam", "s_factor", "c_proxy") and value <= 0:
            raise SetupError("parameter-nonpositive", f"{name} = {value} must "
                             "be positive", key=key)

    overlap = config.omega.support & config.obs.support
    if not overlap.any():
        raise SetupError(
            "disjoint-omega-obs",
            "control region and observation region share no interior node",
        )
    if not _contained_with_margin(config.omega0.support, overlap, margin=1):
        raise SetupError(
            "omega0-margin",
            "inner subdomain must sit inside omega intersect obs with a one-cell margin",
        )

    coefficients = {}
    sup_norms = {}
    for role in ROLE_AXES:
        fld: CoefficientField | None = getattr(config, role)
        if fld is None:
            sup_norms[role] = 0.0
            coefficients[role] = None
            continue
        if fld.role != role:
            raise SetupError("coefficient-shape",
                             f"field in slot {role!r} has role {fld.role!r}")
        # a callable is checked at every node, a constant at one; the
        # values are kept, so no schedule evaluates the callable again
        label = f"{role}-{'fn' if callable(fld.evaluator) else 'const'}"
        values = fld.at_nodes(grid)
        nodes = values if values.ndim > ROLE_AXES[role] + grid.dim \
            else values[None]
        # a NaN would pass the bound check below, which compares with >
        finite = np.isfinite(nodes).all(axis=tuple(range(1, nodes.ndim)))
        if not (finite.all() and np.isfinite(fld.sup_declared)):
            t = grid.times[int(np.argmin(finite))]
            raise SetupError("coefficient-nonfinite", f"{label}: "
                             f"non-finite value or bound at t = {t}")
        observed = max(float(fld.pointwise_magnitude(v).max()) for v in nodes)
        if observed > fld.sup_declared * (1 + 1e-12) + 1e-300:
            raise SetupError(
                "declared-bound-violated",
                f"{label}: sampled sup {observed} exceeds declared {fld.sup_declared}",
            )
        values.flags.writeable = False
        coefficients[role] = values
        sup_norms[role] = fld.sup_declared

    force_fields = _materialize_force(grid, config.force)
    # min and max propagate NaN and keep +-inf without a full-size mask
    if not np.isfinite([force_fields.min(), force_fields.max()]).all():
        finite = np.isfinite(force_fields).reshape(grid.n_steps, -1)
        step = int(np.argmin(finite.all(axis=1)))
        raise SetupError("force-nonfinite", f"non-finite force at step {step}",
                         step=step)
    onset = float(config.force_onset)
    has_force = bool(np.any(force_fields != 0))
    if has_force and onset <= 0:
        raise SetupError(
            "force-onset",
            "a nonzero force requires a strictly positive onset time",
        )
    early = grid.times < onset
    if np.any(force_fields[early] != 0):
        raise SetupError(
            "force-onset",
            "force must vanish before its declared onset time",
        )

    peak = () if config.eta_peak is None else np.atleast_1d(config.eta_peak)
    if config.eta_peak is not None and np.size(peak) != grid.dim:
        raise SetupError(
            "eta-peak-shape",
            f"eta_peak needs {grid.dim} coordinates, one per axis; "
            f"got {config.eta_peak}",
        )
    for ax, c in enumerate(peak):
        if not 0.0 < c < grid.extents[ax]:
            raise SetupError("eta-peak-outside-domain", f"eta_peak = {c} lies "
                             f"outside (0, {grid.extents[ax]}) on axis {ax}",
                             axis=ax)
    profile = cw.build_eta(basis, config.omega0.support, peak=config.eta_peak)
    weights = cw.build_weights(profile, config.lam, grid.t_final)
    s = config.s if config.s is not None else weights.s_threshold * config.s_factor
    constants = cw.observability_constants(weights, s, sup_norms, config.c_proxy)

    # singular-weighted force energy, in log space to make divergence loud
    fw = 0.0
    if has_force:
        # a square that overflows is infinite, and the check below reports it
        with np.errstate(over="ignore"):
            norms2 = np.array([basis.inner(f, f) for f in force_fields])
        active = norms2 > 0
        exponents = constants.rate_m / np.sqrt(grid.times[active]) + np.log(norms2[active])
        if exponents.size and exponents.max() > 700.0 - np.log(grid.dt):
            raise SetupError(
                "force-weight-divergent",
                "exp(M/sqrt(t)) |f|^2 overflows on the grid; push the onset later "
                "or reduce the weight rate",
            )
        fw = float(grid.dt * np.sum(np.exp(exponents)))

    nl = config.nonlinearity if config.nonlinearity is not None else make_nonlinearity("zero", dim=grid.dim)
    if nl.dim != grid.dim:
        raise SetupError("coefficient-shape",
                         f"nonlinearity dimension {nl.dim} != grid dimension {grid.dim}")

    return ValidatedProblem(
        grid=grid, omega=config.omega, obs=config.obs, omega0=config.omega0,
        coefficients=coefficients, sup_norms=sup_norms,
        force_fields=_freeze(force_fields),
        epsilon=float(config.epsilon), nonlinearity=nl,
        profile=profile, weights=weights, constants=constants,
        force_weight_integral=fw,
    )
