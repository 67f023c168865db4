"""Child process of the benchmark: one pass, in a fresh interpreter.

    worker.py env
    worker.py cli TRACE_FILE ARGVS_JSON
    worker.py blinking-g2|tomo-mc SEED TRACE_FILE

`env` prints the facts a result depends on. `cli` imports `tbsim.cli`
and runs `tbsim.cli.main(argv)` for each argv of the JSON list; with
tracing it is the traced stand-in for `python -m tbsim.cli ARGV`. The
in-process workloads run one pass of API calls, time it from the first
operation to the last, check the outputs and print one JSON line. A
TRACE_FILE of `-` means no tracing; otherwise the spans are written there
when the process ends.

Every pass runs in its own process, so no import, `lru_cache` or other
warm state carries over from one pass to the next. Nothing is imported
before `tbsim.cli`, so that its import time is measured whole.
"""

import json
import sys
import time


def _import_tbsim(trace_file):
    t0 = time.perf_counter()
    import tbsim.cli  # noqa: F401  (imports every module of the package)
    import_s = time.perf_counter() - t0
    tracer = None
    if trace_file != "-":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    return tracer, import_s


def environment():
    import ctypes
    import glob
    import os
    import platform
    from importlib import metadata

    import numpy as np
    from tbsim import kernels

    blas_threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                blas_threads = int(fn())
                break
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads,
        "numba": bool(kernels.USE_NUMBA),
    }


def run_cli(trace_file, argvs):
    tracer, import_s = _import_tbsim(trace_file)
    import tbsim.cli
    rc = 0
    try:
        for argv in argvs:
            if tracer is None:
                rc = tbsim.cli.main(argv)
            else:
                rc = tracer.span("cli.command", tbsim.cli.main, argv)
            if rc:
                break
    finally:
        if tracer is not None:
            tracer.dump(trace_file, {"import_s": import_s})
    return rc


def run_pass(workload, seed, trace_file):
    tracer, import_s = _import_tbsim(trace_file)
    import resource

    from inproc import WORKLOADS

    ops, results, check = WORKLOADS[workload](seed)
    failed = []
    t0 = time.perf_counter()
    for name, op in ops:
        try:
            results[name] = op()
        except Exception as exc:  # a failing operation is counted, not fatal
            failed.append(name)
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    wall_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(trace_file, {"import_s": import_s})
    try:
        errors = check()
    except Exception as exc:  # outputs of failed operations are missing
        errors = [f"check stopped: {type(exc).__name__}: {exc}"]
    return {"wall_s": wall_s, "peak_rss_mb": peak_kb / 1024.0,
            "attempted": len(ops), "failed": failed, "errors": errors}


def main(argv):
    if argv[0] == "env":
        print(json.dumps(environment()))
        return 0
    if argv[0] == "cli":
        return run_cli(argv[1], json.loads(argv[2]))
    print(json.dumps(run_pass(argv[0], int(argv[1]), argv[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
