"""Sine-spectral discretization of clamped-Laplacian boundary conditions.

All fields live on the interior nodes of a uniform grid over an interval or
a rectangle.  A field is identified with its sine interpolant, so the
bilaplacian with y = lap(y) = 0 on the boundary is diagonal in mode space
and every derivative operator below has an exact discrete transpose with
respect to the uniform-weight inner product.

Spatial axes are trailing: spatial axis ``a`` of a ``dim``-D basis is
array axis ``a - dim``, so every operator accepts a single field of shape
``shape`` or a stack ``(..., *shape)`` and acts on each field of the stack.
A single 1D field keeps the matrix-vector product ``mat @ u``.

The transforms also take a box of nodes, one slice per axis: ``to_modes(u,
box)`` reads values given on the box only (zero elsewhere) and
``from_modes(c, box)`` returns values on the box only.  Each pass then
multiplies by a slice of the sine matrix, copied contiguous once per box,
so a field supported on a quarter of the nodes costs a fraction of a full
transform.  Unboxed calls run exactly the products they always have.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["SineBasis"]

# Box objects whose slices a basis remembers by identity.
_BOX_MEMO_SIZE = 8


def _along(mat: np.ndarray, u: np.ndarray, axis: int,
           mat_t: np.ndarray | None = None) -> np.ndarray:
    """Apply a dense matrix along array axis -1 or -2 of u.

    ``mat_t`` is the transpose of ``mat``; it defaults to ``mat`` itself,
    which is right for the symmetric full sine and cosine matrices.
    """
    if axis == -2 or u.ndim == 1:
        return mat @ u
    return u @ (mat if mat_t is None else mat_t)


class SineBasis:
    """Tensor-product sine basis on the interior of a box.

    Parameters
    ----------
    extents : tuple of float
        Axis lengths (L,) or (L1, L2).
    n_cells : int
        Number of cells per axis; interior nodes number ``n_cells - 1``
        per axis.

    Notes
    -----
    Operators take fields with the spatial axes trailing, ``(..., *shape)``;
    ``gradient`` and ``hessian`` put their component axes first.  The
    transform pair uses the symmetric matrix S[k, m] = sin(pi*m*k/N),
    which satisfies S @ S = (N/2) I exactly, so round trips are spectrally
    exact up to rounding.  First derivatives evaluate on the cosine matrix
    C[k, m] = cos(pi*m*k/N); the discrete transpose of d/dx is obtained by
    applying the same two matrices in reverse order.
    """

    def __init__(self, extents: tuple[float, ...], n_cells: int):
        if n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        self.extents = tuple(float(L) for L in extents)
        self.dim = len(self.extents)
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        self.n_cells = int(n_cells)
        n = self.n_cells
        self.shape = (n - 1,) * self.dim
        self.nodes = tuple(
            np.arange(1, n) * (L / n) for L in self.extents
        )
        self.cell_volume = math.prod(L / n for L in self.extents)
        # mode wavenumbers kappa_m = m*pi/L per axis
        self.kappa = tuple(
            np.arange(1, n) * (np.pi / L) for L in self.extents
        )
        k = np.arange(1, n)
        angles = np.pi * np.outer(k, k) / n
        self._sine = np.sin(angles)
        self._cosine = np.cos(angles)
        self._mode_scale = 2.0 / n
        self._full_slices = ((self._sine, self._sine),) * self.dim
        self._box_slices: dict[tuple, tuple] = {}
        # id(box) -> (box, slices) of the box objects seen last
        self._box_memo: dict[int, tuple] = {}
        # positive Laplacian symbol sum_i kappa_i^2 on the mode lattice
        if self.dim == 1:
            self.lap_modes = self.kappa[0] ** 2
        else:
            self.lap_modes = self.kappa[0][:, None] ** 2 + self.kappa[1][None, :] ** 2
        self.bilap_modes = self.lap_modes**2
        # Parseval factor: ||u||^2 = mode_volume * sum(c^2)
        self.mode_volume = math.prod(L / 2 for L in self.extents)

    # -- transforms ------------------------------------------------------

    def _slices(self, box: tuple[slice, ...] | None) -> tuple:
        """Per axis, the sine-matrix slices S[:, r] and S[r, :] of ``box``."""
        if box is None:
            return self._full_slices
        # a march passes the same few box objects at every step
        hit = self._box_memo.get(id(box))
        if hit is not None and hit[0] is box:
            return hit[1]
        mats = self._box_mats(box)
        if len(self._box_memo) >= _BOX_MEMO_SIZE:
            self._box_memo.clear()
        self._box_memo[id(box)] = (box, mats)
        return mats

    def _box_mats(self, box: tuple[slice, ...]) -> tuple:
        """The slices of ``box``, copied contiguous once per distinct box."""
        key = tuple(sl.indices(n) for sl, n in zip(box, self.shape))
        mats = self._box_slices.get(key)
        if mats is None:
            mats = tuple((np.ascontiguousarray(self._sine[:, sl]),
                          np.ascontiguousarray(self._sine[sl, :])) for sl in box)
            self._box_slices[key] = mats
        return mats

    def to_modes(self, u: np.ndarray,
                 box: tuple[slice, ...] | None = None) -> np.ndarray:
        """Sine coefficients of u; with ``box``, u holds the values on it."""
        c = u
        for axis, (cols, rows) in zip(range(-self.dim, 0), self._slices(box)):
            c = _along(cols, c, axis, rows) * self._mode_scale
        return c

    def from_modes(self, c: np.ndarray,
                   box: tuple[slice, ...] | None = None) -> np.ndarray:
        """Node values of the coefficients c; with ``box``, on it only."""
        u = c
        for axis, (cols, rows) in zip(range(-self.dim, 0), self._slices(box)):
            u = _along(rows, u, axis, cols)
        return u

    def random_smooth(self, rng: np.random.Generator, decay: float,
                      cap: int | None = None) -> np.ndarray:
        """Random field with power-law mode decay.

        The coefficient of mode m (m_i <= ``cap`` on every axis, all modes
        by default) is a standard normal draw times |m|^-decay; the draws
        come from ``rng`` in one (cap,)*dim block.
        """
        cap = min(self.shape) if cap is None else cap
        idx = np.arange(1, cap + 1, dtype=float)
        rank = idx if self.dim == 1 else np.sqrt(idx[:, None] ** 2 + idx[None, :] ** 2)
        modes = np.zeros(self.shape)
        modes[(slice(0, cap),) * self.dim] = \
            rng.standard_normal((cap,) * self.dim) * rank ** (-decay)
        return self.from_modes(modes)

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcastable node coordinate arrays (sparse meshgrid)."""
        if self.dim == 1:
            return (self.nodes[0],)
        return tuple(np.meshgrid(*self.nodes, indexing="ij", sparse=True))

    # -- derivative operators and their exact transposes -----------------

    def _mode_mult(self, arr: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
        """Scale spatial axis ``axis`` of ``arr`` by the weights ``w``."""
        return arr * w.reshape((-1,) + (1,) * (self.dim - 1 - axis))

    def dx(self, u: np.ndarray, axis: int = 0) -> np.ndarray:
        """First derivative along spatial ``axis`` of the sine interpolant."""
        ax = axis - self.dim
        c = _along(self._sine, u, ax) * self._mode_scale
        c = self._mode_mult(c, self.kappa[axis], axis)
        return _along(self._cosine, c, ax)

    def dx_t(self, w: np.ndarray, axis: int = 0) -> np.ndarray:
        """Discrete transpose of :meth:`dx` in the uniform inner product."""
        ax = axis - self.dim
        c = _along(self._cosine, w, ax)
        c = self._mode_mult(c, self.kappa[axis], axis)
        return _along(self._sine, c, ax) * self._mode_scale

    def dxx(self, u: np.ndarray, axis: int = 0) -> np.ndarray:
        """Same-axis second derivative; symmetric, hence self-transposed."""
        ax = axis - self.dim
        c = _along(self._sine, u, ax) * self._mode_scale
        c = self._mode_mult(c, -self.kappa[axis] ** 2, axis)
        return _along(self._sine, c, ax)

    def d2(self, u: np.ndarray, ax_i: int, ax_j: int) -> np.ndarray:
        """Second derivative d^2/dx_i dx_j (mixed terms via nested dx)."""
        if ax_i == ax_j:
            return self.dxx(u, ax_i)
        return self.dx(self.dx(u, ax_i), ax_j)

    def d2_t(self, w: np.ndarray, ax_i: int, ax_j: int) -> np.ndarray:
        if ax_i == ax_j:
            return self.dxx(w, ax_i)
        return self.dx_t(self.dx_t(w, ax_i), ax_j)

    def lap(self, u: np.ndarray) -> np.ndarray:
        out = self.dxx(u, 0)
        if self.dim == 2:
            out = out + self.dxx(u, 1)
        return out

    def bilap(self, u: np.ndarray) -> np.ndarray:
        return self.from_modes(self.to_modes(u) * self.bilap_modes)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Stacked first derivatives, shape (dim, ..., *shape)."""
        return np.stack([self.dx(u, ax) for ax in range(self.dim)])

    def hessian(self, u: np.ndarray) -> np.ndarray:
        """Stacked second derivatives, shape (dim, dim, ..., *shape)."""
        rows = []
        for i in range(self.dim):
            rows.append([self.d2(u, i, j) for j in range(self.dim)])
        return np.stack([np.stack(r) for r in rows])

    # -- inner products and norms ----------------------------------------

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(self.cell_volume * np.sum(u * v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.cell_volume) * np.linalg.norm(u))

    def h2_norm_sq(self, u: np.ndarray) -> float:
        """Squared Sobolev norm of order two via the mode symbol.

        Of a stack (..., *shape), the sum over its fields.
        """
        return self.h2_norm_sq_modes(self.to_modes(u))

    def h2_norm_sq_modes(self, c: np.ndarray) -> float:
        """:meth:`h2_norm_sq` of the field(s) whose sine coefficients are c."""
        w = 1.0 + self.lap_modes + self.bilap_modes
        return float(self.mode_volume * np.sum(w * c * c))
