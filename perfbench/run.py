"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bounds-1d --seed 1 --seconds 30 --trace 0

The program is the package under ``src/`` of the checkout this script
sits in; nothing is installed.  Set-up time is measured over several
fresh interpreters, then one worker process runs the workload (see
``worker.py``).  Every process runs with the BLAS pool pinned to one
thread, and all of them share one pinned core.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The lines before it list every
metric with its unit, median and quartiles, and the run's provenance.
The full record, and the spans of a traced run, are saved under
``.bench_build/perfbench/``.

The times behind ``op_s``, ``results_per_s`` and ``setup_s`` are scaled
to a reference core speed with a block of ``calibrate.py``, timed right
before and after each op and each fresh start: the workload's own block
for ops, and the ``small`` block (interpreter work, as a start is) for
fresh starts.  The raw wall times are kept in the record and printed as
well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: fresh interpreters timed for ``setup_s``, after one untimed start
SETUP_STARTS = 9

#: a run normally ends well within this; the whole run must end in 180 s
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


#: BLAS pools pinned to one thread, in this process and every worker
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env():
    env = dict(os.environ)
    env.update(ONE_THREAD)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",  # write nothing into the checkout
        "PYTHONHASHSEED": "0",
    })
    return env


def start_worker(args, env):
    """Spawn a worker; return (process, seconds from spawn to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    expected = str(SRC / "eigenclose" / "cli.py")
    if not line.startswith("ready ") or line[6:].strip() != expected:
        stop(proc)
        raise BenchError(f"worker did not import {expected}: {line.strip()!r}")
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit():
    """Commit of the checkout read from ``.git`` files, or None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def declared_units(kind):
    """Metric -> unit for ``kind`` ("end_to_end" or "per_layer") of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload, seed, seconds, trace):
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if not (SRC / "eigenclose" / "cli.py").is_file():
        raise BenchError(f"no eigenclose package under {SRC}")
    # One core for this process and, by inheritance, every worker, so
    # the speed reference is timed on the core that runs the program.
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    os.environ.update(ONE_THREAD)
    from calibrate import Calibration

    env = worker_env()
    calibration = Calibration("small")
    calibration.time()  # warm-up
    stop(start_worker(["setup"], env)[0])  # warms the file cache
    setup, setup_scaled = [], []
    for _ in range(SETUP_STARTS):
        before = calibration.time()
        proc, ready = start_worker(["setup"], env)
        stop(proc)
        setup.append(ready)
        setup_scaled.append(calibration.scaled(ready, before, calibration.time()))

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    config = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "spans_out": str(OUT / f"spans-{tag}.jsonl")}
    proc, _ = start_worker(["run", json.dumps(config)], env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {RUN_TIMEOUT_S} s") from None
    finally:
        stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])

    times = record["op_times_scaled"]
    samples = {
        "op_s": times,
        "results_per_s": [n / t for n, t in zip(record["results"], times)],
        "peak_rss_mb": [record["peak_rss_mb"]],
        "setup_s": setup_scaled,
        "failed_frac": [record["failed"] / record["attempted"]],
        "op_wall_s": record["op_times"],
        "setup_wall_s": setup,
        "calibration_s": record["cal_times"],
    }
    units = dict(declared_units("end_to_end"), failed_frac="ratio",
                 op_wall_s="s", setup_wall_s="s", calibration_s="s")
    if trace:
        samples = dict(record["layers"])
        overhead = (statistics.median(record["traced_op_times_scaled"])
                    / statistics.median(times) - 1)
        samples["trace.overhead_frac"] = [overhead]
        units = declared_units("per_layer")
    summary = {}
    for name, unit in units.items():
        q1, med, q3 = quartiles(samples[name])
        summary[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(samples[name])}

    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "setup_s": setup, "setup_s_scaled": setup_scaled, "metrics": summary,
        "git_commit": git_commit(), "nproc": os.cpu_count(), "core": core,
    })
    (OUT / f"result-{tag}-{time.time_ns()}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    prov = record["provenance"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  commit {record['git_commit']}")
    print(f"python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"blas {prov['blas_build']}  threads {prov['thread_env']}  "
          f"runtime {[b.get('threads') for b in prov['blas_runtime']]}  "
          f"longdouble extended {prov['longdouble_extended']}  "
          f"nproc {record['nproc']}  core {record['core']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']:6s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    keep = declared_units("per_layer" if record["trace"] else "end_to_end")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k]["value"],
                        "unit": record["metrics"][k]["unit"]} for k in keep},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
