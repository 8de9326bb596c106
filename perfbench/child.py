"""One benchmark sample in a fresh interpreter: set up, then one ``cli.main``.

Usage: python child.py SRC_DIR 0|1 COMMAND [CLI ARGS...]
       python child.py SRC_DIR facts

Times the import of ``insens4.cli`` plus ``parse_config`` and
``problem_from_config`` on the workload's config (set-up), then one
in-process ``insens4.cli.main`` call (run).  A fixed reference kernel is
timed just before and just after the ``main`` call, so the caller can
correct both times for the host's speed at that moment.  With 1 the
package's public functions are wrapped first and the per-layer summary is
added.  The program's own output comes first; the last stdout line is one
JSON object with the measurements.

The ``facts`` form only imports the package, which also fills the bytecode
and file caches before any timed sample, and prints the machine and library
facts recorded with each result.
"""
import json
import os
import platform
import resource
import sys
import time

clock = time.perf_counter


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _facts() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        import threadpoolctl  # noqa: F401
        has_tpc = True
    except ImportError:
        has_tpc = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threadpoolctl": has_tpc,
    }


def _reference() -> float:
    """Duration of a fixed kernel shaped like the program's hot loops.

    Dense sine-matrix products on 127-vectors and 63 x 63 blocks, with
    Python-level arithmetic in between.  It never touches insens4, so its
    duration measures only how fast the host runs this process right now.
    """
    import numpy as np
    k = np.arange(1, 128)
    mat = np.sin(np.pi * np.outer(k, k) / 128)
    block = mat[:63, :63].copy()
    x = np.ones(127)
    y = np.ones((63, 63))
    acc = 0
    t0 = clock()
    for i in range(7500):
        x = mat @ x * (2.0 / 128)
        if i % 10 == 0:
            y = block @ y @ block * 1e-3
        acc += i * i
    return clock() - t0


def main() -> int:
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)

    t0 = clock()
    import insens4.cli as cli
    t1 = clock()
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"insens4 was imported from {here}, not from {src}", file=sys.stderr)
        return 3
    if mode == "facts":
        print(json.dumps(_facts()))
        return 0
    config = argv[argv.index("--config") + 1]
    summary = wrapped = None
    if mode == "0":
        t2 = clock()
        cli.problem_from_config(cli.parse_config(config))
        t3 = clock()
        ref0 = _reference()
        t4 = clock()
        rc = cli.main(argv)
        run_s = clock() - t4
    else:
        from tracer import Tracer, summarize
        tracer = Tracer()
        tracer.install()
        t2 = clock()
        _, _, setup_spans = tracer.run(
            "config", "setup", lambda: cli.problem_from_config(cli.parse_config(config)))
        t3 = clock()
        ref0 = _reference()
        rc, root, spans = tracer.run("cli", "main", cli.main, argv)
        run_s = root.duration
        summary = summarize(root, spans, setup_spans, t1 - t0, t3 - t2)
        wrapped = sorted(tracer.wrapped)
    ref_s = 0.5 * (ref0 + _reference())
    out = {
        "rc": rc,
        "setup_s": (t1 - t0) + (t3 - t2),
        "run_s": run_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": summary,
        "wrapped": wrapped,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
