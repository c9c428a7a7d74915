"""Benchmark worker: one fresh single-threaded interpreter.

``python3 worker.py setup`` imports ``eigenclose.cli``, prints ``ready``
and exits; the parent times it from spawn to that line.

``python3 worker.py run CONFIG_JSON`` does the same, then runs one
workload as a closed loop: one client, an untimed warm-up op, then timed
ops back to back until the next op would end past ``seconds``.  Every op
is one ``eigenclose.cli.main(argv)`` call with stdout and stderr
captured in memory.  The workload's speed reference block of
``calibrate.py`` is timed before the first timed op and after every op,
and each op's time is also kept scaled to the reference speed.  With
``trace`` set, timed ops alternate between untraced and traced, so the
tracing overhead is measured in the same process.  The last stdout
line is a JSON record of the run.
"""

import sys


def _blas_runtime():
    """OpenBLAS builds loaded in this process, with their thread counts."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": path.rsplit("/", 1)[-1]}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def provenance():
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    eps = float(np.finfo(np.longdouble).eps)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _blas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "longdouble_eps": eps,
        "longdouble_extended": eps < 1e-18,
    }


def run(config, cli):
    import io
    import json
    import resource
    import statistics
    from contextlib import redirect_stderr, redirect_stdout
    from time import perf_counter

    from calibrate import Calibration
    from tracing import Tracer, op_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[config["workload"]]
    argv = workload.argv(config["seed"], config.get("tiny", False))
    tracer = Tracer() if config["trace"] else None
    reference = None
    problems = []

    def one_op(op, traced):
        nonlocal reference
        out, err = io.StringIO(), io.StringIO()
        found = []
        with redirect_stdout(out), redirect_stderr(err):
            if traced:
                tracer.install()
            t0 = perf_counter()
            try:
                rc = tracer.run_op(op, cli.main, argv) if traced else cli.main(argv)
            except (Exception, SystemExit) as exc:  # an op that raises fails
                rc = None
                found.append(f"raised {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - t0
            if traced:
                tracer.uninstall()
        stdout = out.getvalue()
        results = 0
        if rc is not None:
            try:
                found += workload.check(rc, stdout)
                results = workload.results(stdout)
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"unreadable output: {exc}")
        if reference is None:
            reference = stdout
        elif stdout != reference:
            found.append("output differs from the warm-up op")
        problems.extend(f"op {op}: {p}" for p in found)
        return elapsed, results, not found

    warm_ok = one_op(0, False)[2]
    calibration = Calibration(workload.calibration)
    calibration.time()  # warm-up
    cal_times = [calibration.time()]
    times, traced_times, results = [], [], []
    scaled_times, traced_scaled_times = [], []
    failed = 0
    seconds = config["seconds"]
    min_ops = 4 if tracer else 3
    start = perf_counter()
    op = 0
    while True:
        op += 1
        traced = tracer is not None and op % 2 == 0
        elapsed, n_results, ok = one_op(op, traced)
        cal_times.append(calibration.time())
        failed += not ok
        (traced_times if traced else times).append(elapsed)
        (traced_scaled_times if traced else scaled_times).append(
            calibration.scaled(elapsed, cal_times[-2], cal_times[-1]))
        if not traced:
            results.append(n_results)
        done = perf_counter() - start
        if op >= min_ops and done + statistics.median(times + traced_times) > seconds:
            break

    record = {
        "argv": argv,
        "op_times": times,
        "traced_op_times": traced_times,
        "op_times_scaled": scaled_times,
        "traced_op_times_scaled": traced_scaled_times,
        "calibration": workload.calibration,
        "cal_times": cal_times,
        "results": results,
        "attempted": op,
        "failed": failed,
        "correct": warm_ok and failed == 0,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if tracer is not None:
        per_op = [op_metrics(tracer.spans, tracer.counts, i)
                  for i in range(2, op + 1, 2)]
        record["layers"] = {k: [m[k] for m in per_op] for k in per_op[0]}
        if config.get("spans_out"):
            tracer.write(config["spans_out"])
    print(json.dumps(record), flush=True)


def main(argv):
    import eigenclose.cli as cli

    print("ready", cli.__file__, flush=True)
    if argv[1] == "run":
        import json

        run(json.loads(argv[2]), cli)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
