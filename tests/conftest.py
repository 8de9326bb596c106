"""Shared fixtures: the default desk problem and a shrunk quick variant."""
import collections

import numpy as np
import pytest

from insens4 import pde_engine
from insens4.config import apply_quick, default_config, problem_from_config
from insens4.spectral import SineBasis


def unit_smooth(basis, rng, decay=1.5):
    """Random smooth field with power-law mode decay, unit L2 norm."""
    shape = basis.shape
    if basis.dim == 1:
        rank = np.arange(1, shape[0] + 1, dtype=float)
    else:
        i = np.arange(1, shape[0] + 1, dtype=float)[:, None]
        j = np.arange(1, shape[1] + 1, dtype=float)[None, :]
        rank = np.sqrt(i * i + j * j)
    modes = rng.standard_normal(shape) / rank**decay
    u = basis.from_modes(modes)
    return u / basis.norm(u)


def count_transforms(monkeypatch):
    """Count SineBasis transforms from here on, by (name, boxed, stacked).

    ``name`` is ``to_modes`` or ``from_modes``, ``boxed`` whether the call
    took a box, and ``stacked`` whether its array holds a stack of fields
    (a record, a source, a block of either, or a batch of states) rather
    than one field, so an unboxed conversion of an (Nt, ...) record counts
    under (name, False, True).
    """
    calls = collections.Counter()
    for name in ("to_modes", "from_modes"):
        original = getattr(SineBasis, name)

        def counted(basis, u, box=None, _name=name, _original=original):
            calls[_name, box is not None, np.ndim(u) > basis.dim] += 1
            return _original(basis, u, box)

        monkeypatch.setattr(SineBasis, name, counted)
    return calls


def count_inverse_paths(monkeypatch):
    """Count node inverses by the path ``pde_engine._invert`` sends them.

    ``neumann`` counts the matrices of ``_neumann_inverse`` calls by their
    term count K (a ``Counter``), and ``lapack`` those of ``np.linalg.inv``
    calls.
    """
    counts = {"neumann": collections.Counter(), "lapack": 0}
    neumann, lapack = pde_engine._neumann_inverse, np.linalg.inv

    def product(mats, terms, *work):
        counts["neumann"].update(terms.tolist())
        return neumann(mats, terms, *work)

    def inverted(mats):
        counts["lapack"] += len(mats)
        return lapack(mats)

    monkeypatch.setattr(pde_engine, "_neumann_inverse", product)
    monkeypatch.setattr(np.linalg, "inv", inverted)
    return counts


@pytest.fixture(scope="session")
def desk_problem():
    """Full-size default problem; build once, read-only everywhere."""
    return problem_from_config(default_config())


@pytest.fixture(scope="session")
def quick_problem():
    return problem_from_config(apply_quick(default_config()))


@pytest.fixture()
def rng():
    return np.random.default_rng(np.random.Philox(1234))
