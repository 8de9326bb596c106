"""Batched marches: a (B, *shape) start marches each row independently.

The spectral operators act on trailing spatial axes, so a stack of
fields runs through the one step loop.  On every path (exact diagonal, 1D
mode-space LU, 2D GMRES, and the reaction relaxation on top of
them) a row's arithmetic must not depend on its batch-mates: a row
marched in a batch of B >= 2 gives the same bits as the same row marched
in any other batch of B >= 2 (dense products with one row take a
different BLAS kernel, so single fields are compared with a tolerance).

A linear march may also take its source on a box of nodes, and its
``on_step`` hook, which sees the sine coefficients of a block of midpoint
sums u_j + u_{j+1} (twice the midpoints', to the bit), may record the
midpoints on a box; on every path that equals the full march with the
source embedded in zeros and the record sliced to the box.  A stack may
take one source per row, and a hook may record the sine coefficients
themselves.

A full-grid source goes to modes in one product before the loop and a
record without a hook comes back in one product after it, so
such a march makes a fixed number of transforms at any step count and
matches the recurrence that transforms every step to rounding.  A boxed
source goes a block of steps at a time on its box, the block that the
hook sees, and never grows into a full mode stack.
"""
import collections
import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from insens4 import pde_engine
from insens4.cascade_sentinel import sentinel_sensitivity
from insens4.config import apply_quick, default_config, problem_from_config
from insens4.errors import EngineError
from insens4.nonlinearity import make_nonlinearity
from insens4.pde_engine import (
    Trajectory,
    make_schedule,
    solve_backward,
    solve_forward,
    solve_forward_nonlinear,
)
from insens4.problem_setup import CoefficientField, build_grid
from insens4.spectral import SineBasis
from conftest import unit_smooth
from oracles import sentinel

SETTINGS = settings(max_examples=8, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

# path name -> (dimension, coefficients that select it); "richardson-2d"
# names the 2D non-diagonal path, which now solves its steps by GMRES (the
# id predates that solver and is kept so the test ids stay stable)
PATHS = ("diagonal-1d", "diagonal-2d", "lu-1d", "richardson-2d")


def _grid(dim):
    return build_grid(1, 2.0, 16, 0.5, 16) if dim == 1 else \
        build_grid(2, 2.0, 8, 0.5, 16)


def _coefficients(path, draw):
    """Random coefficients of the kind that routes a march to ``path``."""
    dim = 2 if path.endswith("2d") else 1
    a0, a1, b0, bii, amp = draw
    coeffs = {
        "a0": CoefficientField.constant("a0", a0, dim),
        "a1": CoefficientField.constant("a1", a1, dim),
        "b": CoefficientField.constant("b", bii * np.eye(dim), dim),
    }
    if not path.startswith("diagonal"):
        # a first-order term and an x-dependent damping leave the
        # sine-diagonal path
        coeffs["b0"] = CoefficientField.constant("b0", np.full(dim, b0), dim)
        def damping(*mesh_t):
            shape = np.broadcast(*mesh_t[:-1]).shape
            return a0 + amp * np.sin(np.pi * mesh_t[0]) * np.ones(shape)

        coeffs["a0"] = CoefficientField.from_callable(
            "a0", damping, abs(a0) + abs(amp))
    return dim, coeffs


coefficient_draws = st.tuples(
    st.floats(-1.0, 3.0), st.floats(-0.3, 0.3), st.floats(-1.0, 1.0),
    st.floats(-0.2, 0.2), st.floats(0.0, 2.0))


# per axis (start fraction, width fraction) of a box of nodes
box_draws = st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 1.0)),
                     min_size=2, max_size=2)


def _box(draw, shape):
    """A nonempty box of nodes, one slice per axis."""
    box = []
    for (lo, width), n in zip(draw, shape):
        start = min(int(lo * n), n - 1)
        box.append(slice(start, min(n, start + 1 + int(width * n))))
    return tuple(box)


def _stack(basis, seed, rows):
    rng = np.random.default_rng(seed)
    return np.array([unit_smooth(basis, rng) for _ in range(rows)])


def _source(grid, seed):
    rng = np.random.default_rng(seed + 1)
    return rng.standard_normal((grid.n_steps,) + grid.shape)


def _assert_rows_match(march, starts):
    """Each row of a batched march equals that row marched in a pair."""
    full = march(starts)
    assert full.fields.shape == (full.fields.shape[0],) + starts.shape
    for i, row in enumerate(starts):
        pair = march(np.array([row, starts[(i + 1) % len(starts)]]))
        assert np.array_equal(full.fields[:, i], pair.fields[:, 0])
        assert np.array_equal(full.state0[i], pair.state0[0])
        assert np.array_equal(full.stateT[i], pair.stateT[0])
    # a single field takes matrix-vector products: equal up to rounding
    one = march(starts[0])
    scale = np.abs(full.fields[:, 0]).max()
    assert np.abs(one.fields - full.fields[:, 0]).max() <= 1e-12 * scale
    return full


class TestBatchedLinearMarch:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @SETTINGS
    @given(draw=coefficient_draws, seed=st.integers(0, 2**16), rows=st.integers(3, 5))
    def test_rows_are_independent(self, path, backward, draw, seed, rows):
        dim, coeffs = _coefficients(path, draw)
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        source = _source(grid, seed)
        solve = solve_backward if backward else solve_forward
        _assert_rows_match(lambda s: solve(grid, schedule, s, source),
                           _stack(grid.basis, seed, rows))

    def test_on_step_streams_what_it_returns(self):
        grid = _grid(1)
        schedule = make_schedule(grid, {})
        starts = _stack(grid.basis, 3, 4)
        full = solve_forward(grid, schedule, starts)
        seen = []

        def keep_last(lo, totals):
            seen.extend(range(lo, lo + len(totals)))
            return 0.5 * grid.basis.from_modes(totals)[:, -1]

        streamed = solve_forward(grid, schedule, starts, on_step=keep_last)
        assert seen == list(range(grid.n_steps))
        assert np.array_equal(streamed.fields, full.fields[:, -1])
        assert np.array_equal(streamed.stateT, full.stateT)

    def test_start_shape_rejected(self):
        grid = _grid(1)
        with pytest.raises(EngineError) as exc:
            solve_forward(grid, make_schedule(grid, {}), np.zeros((2, 3, 15)))
        assert exc.value.code == "start-shape"


def _on_box(basis, box, lo, totals):
    """A linear march's hook that records each midpoint's values on ``box``."""
    return 0.5 * basis.from_modes(totals, box)


class TestBoxedMarch:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @SETTINGS
    @given(draw=coefficient_draws, seed=st.integers(0, 2**16),
           box_draw=box_draws, rows=st.sampled_from([0, 2]))
    def test_boxed_source_and_record_match_full(self, path, backward, draw,
                                                seed, box_draw, rows):
        dim, coeffs = _coefficients(path, draw)
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        box = _box(box_draw, grid.shape)
        on_box = (...,) + box
        source = np.zeros((grid.n_steps,) + grid.shape)
        source[on_box] = _source(grid, seed)[on_box]
        starts = _stack(grid.basis, seed, max(rows, 1))
        if not rows:
            starts = starts[0]
        solve = functools.partial(solve_backward if backward else solve_forward,
                                  grid, schedule, starts)
        full = solve(source)
        # a hook that sees the midpoints in modes records them on the box
        on_step = functools.partial(_on_box, grid.basis, box)
        runs = {
            "source": (solve(source[on_box], source_box=box), full.fields),
            "record": (solve(source, on_step=on_step), full.fields[on_box]),
            "both": (solve(source[on_box], source_box=box, on_step=on_step),
                     full.fields[on_box]),
        }
        scale = np.abs(full.fields).max()
        for name, (traj, want) in runs.items():
            assert traj.fields.shape == want.shape, name
            assert np.abs(traj.fields - want).max() <= 1e-12 * scale, name
            for end in ("state0", "stateT"):
                got, ref = getattr(traj, end), getattr(full, end)
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    def test_on_step_sees_the_record_box(self, backward, monkeypatch):
        grid = _grid(2)
        box = (slice(1, 4), slice(2, 6))
        seen = []

        def norm(lo, modes):
            mid = _on_box(grid.basis, box, lo, modes)
            seen.append((lo, mid.shape))
            return np.sum(mid * mid, axis=(1, 2))

        solve = solve_backward if backward else solve_forward
        start = _stack(grid.basis, 4, 1)[0]
        # blocks of 3 steps: 16 steps end in a block of one, which comes
        # last going forward and first going backward
        monkeypatch.setattr(pde_engine, "HOOK_BLOCK_BYTES", 3 * start.nbytes)
        traj = solve(grid, make_schedule(grid, {}), start, on_step=norm)
        nt = grid.n_steps
        blocks = [(lo, min(3, nt - lo)) for lo in range(0, nt, 3)] if not backward \
            else [(max(0, hi - 3), min(3, hi)) for hi in range(nt, 0, -3)]
        assert seen == [(lo, (k, 3, 4)) for lo, k in blocks]
        full = solve(grid, make_schedule(grid, {}), start)
        want = np.sum(full.fields[(...,) + box] ** 2, axis=(1, 2))
        assert traj.fields.shape == (grid.n_steps,)
        assert np.allclose(traj.fields, want, rtol=1e-13, atol=0)

    def test_source_box_shape_checked(self):
        grid = _grid(1)
        with pytest.raises(EngineError) as exc:
            solve_forward(grid, make_schedule(grid, {}), np.zeros(grid.shape),
                          np.zeros((grid.n_steps,) + grid.shape),
                          source_box=(slice(2, 5),))
        assert exc.value.code == "source-shape"

    def test_callable_source_rejected(self):
        # the source is given as values at the midpoint nodes, not a function
        grid = _grid(1)
        with pytest.raises(EngineError) as exc:
            solve_forward(grid, make_schedule(grid, {}), np.zeros(grid.shape),
                          lambda x, t: np.sin(x) * t)
        assert exc.value.code == "source-shape"


class TestPerRowSource:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("boxed", [False, True], ids=["full", "box"])
    @SETTINGS
    @given(draw=coefficient_draws, seed=st.integers(0, 2**16),
           box_draw=box_draws, rows=st.integers(2, 4))
    def test_rows_match_single_row_marches(self, path, backward, boxed, draw,
                                           seed, box_draw, rows):
        # row i of a march under a (Nt, B, ...) source is the march of
        # start i under source row i
        dim, coeffs = _coefficients(path, draw)
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        box = _box(box_draw, grid.shape) if boxed else None
        on_box = (...,) + (box or ())
        sources = np.random.default_rng(seed + 2).standard_normal(
            (grid.n_steps, rows) + grid.shape)[on_box]
        starts = _stack(grid.basis, seed, rows)
        solve = functools.partial(solve_backward if backward else solve_forward,
                                  grid, schedule, source_box=box)
        full = solve(starts, sources)
        scale = np.abs(full.fields).max()
        for i in range(rows):
            one = solve(starts[i], sources[:, i])
            for got, want in ((full.fields[:, i], one.fields),
                              (full.state0[i], one.state0),
                              (full.stateT[i], one.stateT)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("box", [None, (slice(2, 5),)], ids=["full", "box"])
    def test_row_count_checked(self, box):
        grid = _grid(1)
        schedule = make_schedule(grid, {})
        starts = _stack(grid.basis, 1, 3)
        shape = grid.shape if box is None else (3,)
        for start, rows in ((starts, 2), (starts, 4), (starts[0], 1)):
            with pytest.raises(EngineError) as exc:
                solve_forward(grid, schedule, start,
                              np.zeros((grid.n_steps, rows) + shape),
                              source_box=box)
            assert exc.value.code == "source-shape"

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    def test_hook_records_sine_coefficients(self, path, backward):
        dim, coeffs = _coefficients(path, (0.5, 0.1, 0.4, 0.05, 1.0))
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        starts = _stack(grid.basis, 7, 3)
        solve = functools.partial(solve_backward if backward else solve_forward,
                                  grid, schedule, starts, _source(grid, 7))
        phys = solve()
        modes = solve(on_step=lambda lo, c: 0.5 * c)
        want = grid.basis.to_modes(phys.fields)
        assert np.abs(modes.fields - want).max() <= 1e-12 * np.abs(want).max()
        # the end states stay physical
        assert np.array_equal(modes.state0, phys.state0)
        assert np.array_equal(modes.stateT, phys.stateT)
        # on_step sees the recorded coefficients
        streamed = solve(on_step=lambda lo, c: 0.5 * c[:, 1])
        assert np.array_equal(streamed.fields, modes.fields[:, 1])


def _count_transforms(monkeypatch):
    """Count SineBasis transforms as (name, boxed) pairs from here on."""
    calls = collections.Counter()
    for name in ("to_modes", "from_modes"):
        original = getattr(SineBasis, name)

        def counted(basis, u, box=None, _name=name, _original=original):
            calls[_name, box is not None] += 1
            return _original(basis, u, box)

        monkeypatch.setattr(SineBasis, name, counted)
    return calls


def _per_step_march(grid, schedule, start, source, backward):
    """The diagonal midpoint step transforming source[j] and each midpoint per step."""
    basis = grid.basis
    factors = pde_engine._scan_diagonal(basis, schedule, grid.n_steps, grid.dt)
    c = grid.dt / 2
    x = basis.to_modes(start)
    fields = np.empty((grid.n_steps,) + start.shape)
    order = range(grid.n_steps)
    for j in (reversed(order) if backward else order):
        # the engine's factors take a right-hand side to the midpoint sum
        mid = 0.5 * factors[j] * (x + c * basis.to_modes(source[j]))
        fields[j] = basis.from_modes(mid)
        x = 2.0 * mid - x
    return fields, basis.from_modes(x)


class TestSourceAndRecordTransforms:
    @pytest.mark.parametrize("path", ["diagonal-1d", "diagonal-2d"])
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("case", ["single", "shared", "per-row"])
    def test_diagonal_matches_per_step_transforms(self, path, backward, case):
        dim, coeffs = _coefficients(path, (0.5, 0.1, 0.4, 0.05, 1.0))
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        starts = _stack(grid.basis, 11, 3)
        source = np.random.default_rng(12).standard_normal(
            (grid.n_steps,) + starts.shape)
        if case == "single":
            starts, source = starts[0], source[:, 0]
        elif case == "shared":
            source = source[:, 0]
        solve = solve_backward if backward else solve_forward
        traj = solve(grid, schedule, starts, source)
        fields, end = _per_step_march(grid, schedule, starts, source, backward)
        for got, want in ((traj.fields, fields),
                          (traj.state0 if backward else traj.stateT, end)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n_steps", [16, 64])
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("zero_start", [False, True], ids=["start", "zero"])
    def test_full_grid_source_transforms_pinned(self, monkeypatch, n_steps,
                                                backward, zero_start):
        # the source stack, a nonzero start, the record and the end state
        grid = build_grid(1, 2.0, 16, 0.5, n_steps)
        schedule = make_schedule(grid, {"a0": CoefficientField.constant("a0", 0.5)})
        starts = _stack(grid.basis, 3, 2)
        if zero_start:
            starts = np.zeros_like(starts)
        calls = _count_transforms(monkeypatch)
        solve = solve_backward if backward else solve_forward
        solve(grid, schedule, starts, _source(grid, 3))
        assert calls == {("to_modes", False): 1 if zero_start else 2,
                         ("from_modes", False): 2}

    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("steps", [1, 3, None], ids=["k1", "k3", "whole"])
    def test_hook_and_record_box_convert_per_block(self, monkeypatch, backward,
                                                   steps):
        grid = _grid(1)
        nt = grid.n_steps
        schedule = make_schedule(grid, {})
        start, source = _stack(grid.basis, 5, 1)[0], _source(grid, 5)
        # blocks of k steps, the whole march by default
        if steps is not None:
            monkeypatch.setattr(pde_engine, "HOOK_BLOCK_BYTES", steps * start.nbytes)
        blocks = -(-nt // (steps or nt))
        solve = functools.partial(solve_backward if backward else solve_forward,
                                  grid, schedule, start, source)
        calls = _count_transforms(monkeypatch)
        solve(on_step=lambda lo, modes: grid.basis.from_modes(modes)[:, 0])
        assert calls == {("to_modes", False): 2,
                         ("from_modes", False): blocks + 1}
        calls.clear()
        solve(on_step=functools.partial(_on_box, grid.basis, (slice(2, 5),)))
        assert calls == {("to_modes", False): 2, ("from_modes", True): blocks,
                         ("from_modes", False): 1}

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    def test_boxed_source_transforms_per_block(self, monkeypatch, path, backward):
        dim, coeffs = _coefficients(path, (0.5, 0.1, 0.4, 0.05, 1.0))
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        box = (slice(2, 5),) * dim
        sources = _source(grid, 6)[(...,) + box]
        solve = solve_backward if backward else solve_forward
        start = np.zeros(grid.shape)
        # build the schedule's cached factors outside the count
        solve(grid, schedule, start)
        # blocks of 3 steps: 16 steps take 6 blocks, one source transform each
        monkeypatch.setattr(pde_engine, "HOOK_BLOCK_BYTES", 3 * start.nbytes)
        calls = _count_transforms(monkeypatch)
        solve(grid, schedule, start, sources, source_box=box)
        assert calls["to_modes", True] == -(-grid.n_steps // 3)
        assert calls["from_modes", True] == 0

    def test_boxed_per_row_source_peaks_below_a_mode_stack(self):
        # a psi march as the observability sampler runs it, on a 2D
        # schedule with a first-order term (the GMRES path): the per-row
        # source lives on a box and the hook streams one number per row
        grid = build_grid(2, 2.0, 24, 0.5, 80)
        schedule = make_schedule(grid, {"b0": CoefficientField.constant(
            "b0", np.array([0.5, 0.0]), 2)})
        rows, box = 4, (slice(8, 17), slice(8, 17))
        sources = np.random.default_rng(9).standard_normal(
            (grid.n_steps, rows, 9, 9))
        mode_stack = grid.n_steps * rows * np.prod(grid.shape) * 8
        tracemalloc.start()
        try:
            psi = solve_backward(grid, schedule, np.zeros((rows,) + grid.shape),
                                 sources, on_step=lambda lo, c: np.sum(c * c, axis=(2, 3)),
                                 source_box=box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.fields.shape == (grid.n_steps, rows)
        assert peak < mode_stack


class TestBatchedNonlinearMarch:
    @pytest.mark.parametrize("kind", ["tanh", "mixed"])
    @pytest.mark.parametrize("path", PATHS)
    @settings(SETTINGS, max_examples=5)
    @given(draw=coefficient_draws, seed=st.integers(0, 2**16),
           scale=st.floats(0.1, 1.0), amp=st.floats(0.5, 3.0))
    def test_rows_are_independent(self, kind, path, draw, seed, scale, amp):
        dim, coeffs = _coefficients(path, draw)
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        nl = make_nonlinearity(kind, scale=scale, dim=dim)
        source = _source(grid, seed)
        starts = amp * _stack(grid.basis, seed, 3)
        _assert_rows_match(
            lambda s: solve_forward_nonlinear(grid, schedule, nl, s, source),
            starts)

    @pytest.mark.parametrize("kind", ["tanh", "mixed"])
    @pytest.mark.parametrize("path", ["diagonal-1d", "lu-1d"])
    def test_state_only_reaction_skips_derivatives(self, kind, path, monkeypatch):
        # tanh reads only u: the march computes no gradient or Hessian and
        # gives the bits it gives when it does compute them
        dim, coeffs = _coefficients(path, (0.5, 0.1, 0.3, 0.0, 1.0))
        grid = _grid(dim)
        schedule = make_schedule(grid, coeffs)
        nl = make_nonlinearity(kind, scale=0.5)
        starts = 2.0 * _stack(grid.basis, 9, 2)
        source = _source(grid, 9)
        # the same F with its zero partials declared takes the full jet
        full = dataclasses.replace(nl, f_p=lambda u, p, r: np.zeros_like(p),
                                   f_r=lambda u, p, r: np.zeros_like(r))
        want = solve_forward_nonlinear(grid, schedule, full, starts, source)
        calls = []
        for name in ("dx", "dxx"):
            original = getattr(SineBasis, name)

            def counted(basis, u, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(basis, u, *args, **kwargs)

            monkeypatch.setattr(SineBasis, name, counted)
        got = solve_forward_nonlinear(grid, schedule, nl, starts, source)
        assert (nl.f_p is None) == (nl.f_r is None) == (kind == "tanh")
        assert (len(calls) == 0) == (nl.f_p is None)
        assert np.array_equal(got.fields, want.fields)
        assert np.array_equal(got.stateT, want.stateT)

    def test_rows_converge_to_their_own_tolerance(self):
        # the relaxed step is the CN step with F at the midpoint: the
        # residual of every row sits at the fixed-point tolerance
        grid = _grid(1)
        basis = grid.basis
        nl = make_nonlinearity("tanh", scale=2.0)
        starts = np.array([3.0, 0.0, -1.0])[:, None] \
            * _stack(basis, 5, 1)
        traj = solve_forward_nonlinear(grid, make_schedule(grid, {}), nl, starts)
        u = traj.state0
        for mid in traj.fields:
            new = 2.0 * mid - u
            react = nl.f(mid, basis.gradient(mid), basis.hessian(mid))
            resid = new - u + grid.dt * (basis.bilap(mid) + react)
            assert np.abs(resid).max() <= 1e-8 * (1 + np.abs(u).max())
            u = new
        assert np.array_equal(traj.fields[:, 1], np.zeros_like(traj.fields[:, 1]))

    @pytest.mark.parametrize("batched", [False, True])
    def test_relaxation_stall_names_step_and_row(self, monkeypatch, batched):
        grid = _grid(1)
        nl = make_nonlinearity("tanh", scale=1.0)
        y0 = _stack(grid.basis, 7, 1)[0]
        # a zero row with no source has a zero reaction and converges in
        # one sweep; the perturbed row cannot within RELAX_CAP = 1
        start = np.array([np.zeros_like(y0), y0]) if batched else y0
        monkeypatch.setattr(pde_engine, "RELAX_CAP", 1)
        with pytest.raises(EngineError) as exc:
            solve_forward_nonlinear(grid, make_schedule(grid, {}), nl, start)
        err = exc.value
        assert err.code == "inner-solve-divergence"
        assert err.context["step"] == 0
        assert err.context["row"] == (1 if batched else None)
        assert len(err.context["updates"]) == 1
        assert err.context["updates"][0] > 1e-11
        assert "step 0" in str(err)
        assert ("row 1" in str(err)) == batched


@functools.lru_cache
def _quick_problem(kind):
    cfg = apply_quick(default_config())
    cfg["nonlinearity"] = {"kind": kind, "scale": 0.5}
    return problem_from_config(cfg)


class TestStreamedSentinel:
    @pytest.mark.parametrize("kind", ["zero", "tanh", "mixed"])
    @settings(SETTINGS, max_examples=6)
    @given(seed=st.integers(0, 2**16), tau=st.floats(1e-3, 0.3),
           rows=st.integers(1, 3))
    def test_matches_sentinel_of_full_trajectory(self, kind, seed, tau, rows):
        p = _quick_problem(kind)
        rng = np.random.default_rng(seed)
        v = p.omega.values * rng.standard_normal((p.grid.n_steps,) + p.grid.shape)
        yhats = np.array([unit_smooth(p.basis, rng) for _ in range(rows)])
        reports = sentinel_sensitivity(p, v, yhats, tau_probe=tau)
        # the same runs as one stored batched march
        source = p.force_fields + v
        starts = np.concatenate([tau * yhats, -tau * yhats])
        full = solve_forward_nonlinear(
            p.grid, make_schedule(p.grid, p.coefficients), p.nonlinearity,
            starts, source)
        for i, report in enumerate(reports):
            for got, row in ((report.phi_plus, i), (report.phi_minus, rows + i)):
                want = sentinel(Trajectory(p.basis, p.grid.dt,
                                           full.fields[:, row], starts[row],
                                           full.stateT[row]), p.obs.values)
                assert got == pytest.approx(want, rel=1e-13, abs=0)
