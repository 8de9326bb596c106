"""Span tracer that wraps insens4's public functions from outside the package.

Every public function (``__all__``) of each traced module gets a span: name,
layer (its module), start, end and the span that called it.  The package
binds names with ``from .x import f``, so each wrapper replaces the original
object in every ``insens4`` module that holds it.  The ``SineBasis`` transform
and derivative methods run hundreds of thousands of times per workload, so
they get no span of their own: each call adds a count, its computed flops and
its duration to the span that is open when it runs.

A layer's self time is the duration of its spans minus the time their child
spans and spectral calls cover, so the self times of all layers, plus the
spectral time, add up to the root span's duration.
"""
from __future__ import annotations

import importlib
import sys
import time
import types

clock = time.perf_counter

# Modules whose public functions get spans; spectral is handled separately.
SPAN_LAYERS = ("cli", "config", "problem_setup", "carleman_weights",
               "nonlinearity", "pde_engine", "cascade_sentinel",
               "hum_synthesis", "semilinear_loop", "reporting")
LAYERS = SPAN_LAYERS + ("spectral",)
TRANSFORMS = ("to_modes", "from_modes")
DERIVATIVES = ("dx", "dx_t", "dxx")
MARCHES = ("solve_forward", "solve_backward", "solve_forward_nonlinear")
MINIMIZERS = ("minimize_exact", "minimize_quadratic")
WRITERS = ("write_csv", "write_field_dump", "write_manifest")


class Span:
    __slots__ = ("layer", "name", "parent", "t0", "t1", "child_t", "spec_t",
                 "n_tr", "n_der", "flops", "has_march_child", "extra")

    def __init__(self, layer: str, name: str, parent: "Span | None"):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.child_t = 0.0      # time covered by child spans and spectral calls
        self.spec_t = 0.0       # time of spectral calls made directly in this span
        self.n_tr = 0
        self.n_der = 0
        self.flops = 0
        self.has_march_child = False
        self.extra = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.duration - self.child_t

    @property
    def is_leaf_march(self) -> bool:
        return (self.layer == "pde_engine" and self.name in MARCHES
                and not self.has_march_child)


def _march_extra(result):
    return {"steps": len(result.fields)}


def _minimize_extra(result):
    krylov = max((e.get("dimension", 0) for e in result.convergence_log
                  if e.get("phase") == "lanczos"), default=0)
    ista = result.iterations if result.variant == "exact" else 0
    # applies = affine term + Lanczos basis + first gradient + prox trials
    trials = result.operator_applies - 2 - krylov if ista else 0
    return {"applies": result.operator_applies, "krylov": krylov,
            "ista": ista, "trials": trials}


def _ratio_extra(result):
    return {"samples": result.n_samples,
            "valid": result.n_samples - result.n_degenerate}


def _picard_extra(result):
    return {"picard": result.iterations}


def _write_extra(result):
    return {"bytes": result.stat().st_size}


# Small facts read from a traced function's return value after its span ends.
HOOKS = {("pde_engine", name): _march_extra for name in MARCHES}
HOOKS.update({("hum_synthesis", name): _minimize_extra for name in MINIMIZERS})
HOOKS[("hum_synthesis", "observability_ratio_sample")] = _ratio_extra
HOOKS[("semilinear_loop", "picard_insensitize")] = _picard_extra
HOOKS.update({("reporting", name): _write_extra for name in WRITERS})


class Tracer:
    """Installs the wrappers once; ``run`` records one root span's tree."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.wrapped: set[tuple[str, str]] = set()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "insens4" or name.startswith("insens4.")]
        for layer in SPAN_LAYERS:
            mod = importlib.import_module("insens4." + layer)
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                if layer == "cli" and name == "main":
                    continue  # the root span wraps main
                wrapper = self._span_wrapper(layer, name, fn, HOOKS.get((layer, name)))
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                self.wrapped.add((layer, name))
        basis_cls = importlib.import_module("insens4.spectral").SineBasis
        for name in TRANSFORMS + DERIVATIVES:
            fn = basis_cls.__dict__.get(name)
            if isinstance(fn, types.FunctionType):
                setattr(basis_cls, name,
                        self._spectral_wrapper(fn, name in TRANSFORMS))
                self.wrapped.add(("spectral", name))

    def _span_wrapper(self, layer, name, fn, hook):
        stack, spans = self.stack, self.spans
        is_march = layer == "pde_engine" and name in MARCHES

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(layer, name, parent)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span.t0, span.t1 = t0, t1
                parent.child_t += t1 - t0
                if is_march:
                    parent.has_march_child = True
                spans.append(span)
            if hook is not None:
                span.extra = hook(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _spectral_wrapper(self, fn, is_transform: bool):
        stack = self.stack

        # one dense n x n matrix pass costs 2 n flops per field entry; a
        # transform makes one pass per axis, a derivative two along one axis
        def wrapper(basis, u, *args, **kwargs):
            t0 = clock()
            result = fn(basis, u, *args, **kwargs)
            dt = clock() - t0
            span = stack[-1]
            span.spec_t += dt
            span.child_t += dt
            passes = basis.dim if is_transform else 2
            span.flops += passes * 2 * basis.shape[0] * u.size
            if is_transform:
                span.n_tr += 1
            else:
                span.n_der += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording -------------------------------------------------------

    def run(self, layer: str, name: str, fn, *args, **kwargs):
        """Call fn under a root span; returns (result, root, spans)."""
        root = Span(layer, name, None)
        self.spans.clear()
        self.stack[:] = [root]
        root.t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            root.t1 = clock()
            self.stack.clear()
        spans = [root] + list(self.spans)
        self.spans.clear()
        return result, root, spans


def _fn(layer, *names):
    return [(layer, name) for name in names]


SPECTRAL_DEPS = _fn("spectral", *TRANSFORMS, *DERIVATIVES)
MARCH_DEPS = _fn("pde_engine", *MARCHES)
PROBE_DEPS = _fn("cascade_sentinel", "sentinel_sensitivity")
MIN_DEPS = _fn("hum_synthesis", *MINIMIZERS)
SAMPLE_DEPS = _fn("hum_synthesis", "observability_ratio_sample")
WEIGHT_DEPS = _fn("carleman_weights", "build_eta", "build_weights",
                  "observability_constants")
WRITE_DEPS = _fn("reporting", *WRITERS)

# (name, unit, exact, functions it needs): ``exact`` marks deterministic work
# counts, which must repeat bit for bit between runs of the same code.
PER_LAYER = (
    ("spectral.transforms", "count", True, _fn("spectral", *TRANSFORMS)),
    ("spectral.derivatives", "count", True, _fn("spectral", *DERIVATIVES)),
    ("spectral.flops", "computed_flop", True, SPECTRAL_DEPS),
    ("spectral.self_s", "s", False, SPECTRAL_DEPS),
    ("pde_engine.marches", "count", True, MARCH_DEPS),
    ("pde_engine.steps", "count", True, MARCH_DEPS),
    ("pde_engine.transforms_per_step", "ratio", True,
     MARCH_DEPS + _fn("spectral", *TRANSFORMS)),
    ("pde_engine.march_ms", "ms", False, MARCH_DEPS),
    ("pde_engine.self_s", "s", False, MARCH_DEPS),
    ("cascade_sentinel.adjoint_pairs", "count", True,
     _fn("cascade_sentinel", "solve_adjoint_pair")),
    ("cascade_sentinel.cascades", "count", True,
     _fn("cascade_sentinel", "solve_cascade")),
    ("cascade_sentinel.probes", "count", True, PROBE_DEPS),
    ("cascade_sentinel.probe_s", "s", False, PROBE_DEPS),
    ("cascade_sentinel.marches_per_probe", "ratio", True, PROBE_DEPS + MARCH_DEPS),
    ("cascade_sentinel.self_s", "s", False,
     _fn("cascade_sentinel", "solve_adjoint_pair", "solve_cascade",
         "sentinel_sensitivity")),
    ("hum_synthesis.minimize_s", "s", False, MIN_DEPS),
    ("hum_synthesis.applies", "count", True, MIN_DEPS),
    ("hum_synthesis.krylov_dim", "count", True, MIN_DEPS),
    ("hum_synthesis.ista_iters", "count", True, MIN_DEPS),
    ("hum_synthesis.prox_accept_ratio", "ratio", True, MIN_DEPS),
    ("hum_synthesis.verify_s", "s", False, _fn("hum_synthesis", "verify_null")),
    ("hum_synthesis.sample_ms", "ms", False, SAMPLE_DEPS),
    ("hum_synthesis.valid_ratio", "ratio", True, SAMPLE_DEPS),
    ("hum_synthesis.self_s", "s", False,
     MIN_DEPS + SAMPLE_DEPS + _fn("hum_synthesis", "verify_null")),
    ("semilinear_loop.picard_iters", "count", True,
     _fn("semilinear_loop", "picard_insensitize")),
    ("semilinear_loop.picard_s", "s", False,
     _fn("semilinear_loop", "picard_insensitize")),
    ("semilinear_loop.eval_g_calls", "count", True, _fn("semilinear_loop", "eval_g")),
    ("semilinear_loop.eval_g_s", "s", False, _fn("semilinear_loop", "eval_g")),
    ("semilinear_loop.tangent_s", "s", False,
     _fn("semilinear_loop", "tangent_schedule")),
    ("semilinear_loop.self_s", "s", False,
     _fn("semilinear_loop", "picard_insensitize", "eval_g", "tangent_schedule")),
    ("setup.import_s", "s", False, []),
    ("config.problem_s", "s", False, []),
    ("carleman_weights.build_s", "s", False, WEIGHT_DEPS),
    ("config.self_s", "s", False, _fn("config", "parse_config", "problem_from_config")),
    ("problem_setup.self_s", "s", False, _fn("problem_setup", "validate_problem")),
    ("carleman_weights.self_s", "s", False, WEIGHT_DEPS),
    ("nonlinearity.self_s", "s", False, _fn("nonlinearity", "make_nonlinearity")),
    ("reporting.files", "count", True, WRITE_DEPS),
    ("reporting.bytes", "B", False, WRITE_DEPS),
    ("reporting.write_s", "s", False, WRITE_DEPS),
    ("reporting.self_s", "s", False, WRITE_DEPS),
    ("cli.self_s", "s", False, []),
    ("trace.run_s", "s", False, []),
    ("trace.overhead_ratio", "ratio", False, []),
)


def _under(span: Span, layer: str, name: str) -> bool:
    span = span.parent
    while span is not None:
        if span.layer == layer and span.name == name:
            return True
        span = span.parent
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(root: Span, spans: list[Span], setup_spans: list[Span],
              import_s: float, problem_s: float) -> dict:
    """Per-layer values of one traced ``main`` call and its set-up.

    ``trace.overhead_ratio`` needs an untraced run and is filled in by the
    caller.
    """
    def calls(layer, *names):
        return [s for s in spans if s.layer == layer and s.name in names]

    def total(span_list):
        return sum(s.duration for s in span_list)

    def extra(span_list, key):
        return sum(s.extra[key] for s in span_list if s.extra)

    self_t = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_t[s.layer] += s.self_time
        self_t["spectral"] += s.spec_t
    leaf = [s for s in spans if s.is_leaf_march]
    steps = extra(leaf, "steps")
    probes = calls("cascade_sentinel", "sentinel_sensitivity")
    probe_marches = sum(1 for s in leaf
                        if _under(s, "cascade_sentinel", "sentinel_sensitivity"))
    mins = calls("hum_synthesis", *MINIMIZERS)
    samples = calls("hum_synthesis", "observability_ratio_sample")
    n_samples = extra(samples, "samples")
    writes = [s for s in calls("reporting", *WRITERS) if s.parent.layer != "reporting"]
    setup_weights = [s for s in setup_spans if s.layer == "carleman_weights"
                     and s.parent.layer != "carleman_weights"]
    values = {
        "spectral.transforms": sum(s.n_tr for s in spans),
        "spectral.derivatives": sum(s.n_der for s in spans),
        "spectral.flops": sum(s.flops for s in spans),
        "pde_engine.marches": len(leaf),
        "pde_engine.steps": steps,
        "pde_engine.transforms_per_step": _ratio(sum(s.n_tr for s in leaf), steps),
        "pde_engine.march_ms": 1e3 * _ratio(total(leaf), len(leaf)),
        "cascade_sentinel.adjoint_pairs": len(calls("cascade_sentinel", "solve_adjoint_pair")),
        "cascade_sentinel.cascades": len(calls("cascade_sentinel", "solve_cascade")),
        "cascade_sentinel.probes": len(probes),
        "cascade_sentinel.probe_s": total(probes),
        "cascade_sentinel.marches_per_probe": _ratio(probe_marches, len(probes)),
        "hum_synthesis.minimize_s": total(mins),
        "hum_synthesis.applies": extra(mins, "applies"),
        "hum_synthesis.krylov_dim": extra(mins, "krylov"),
        "hum_synthesis.ista_iters": extra(mins, "ista"),
        "hum_synthesis.prox_accept_ratio": _ratio(extra(mins, "ista"), extra(mins, "trials")),
        "hum_synthesis.verify_s": total(calls("hum_synthesis", "verify_null")),
        "hum_synthesis.sample_ms": 1e3 * _ratio(total(samples), n_samples),
        "hum_synthesis.valid_ratio": _ratio(extra(samples, "valid"), n_samples),
        "semilinear_loop.picard_iters": extra(
            calls("semilinear_loop", "picard_insensitize"), "picard"),
        "semilinear_loop.picard_s": total(calls("semilinear_loop", "picard_insensitize")),
        "semilinear_loop.eval_g_calls": len(calls("semilinear_loop", "eval_g")),
        "semilinear_loop.eval_g_s": total(calls("semilinear_loop", "eval_g")),
        "semilinear_loop.tangent_s": total(calls("semilinear_loop", "tangent_schedule")),
        "setup.import_s": import_s,
        "config.problem_s": problem_s,
        "carleman_weights.build_s": total(setup_weights),
        "reporting.files": len(writes),
        "reporting.bytes": extra(writes, "bytes"),
        "reporting.write_s": total(writes),
        "trace.run_s": root.duration,
        "trace.overhead_ratio": None,
    }
    for layer in LAYERS:
        values[layer + ".self_s"] = self_t[layer]
    return values


def self_time_gap(values: dict) -> float:
    """Traced run time minus the sum of every layer's self time."""
    return values["trace.run_s"] - sum(values[layer + ".self_s"] for layer in LAYERS)
