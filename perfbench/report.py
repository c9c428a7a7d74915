"""Summarize the saved benchmark runs, one block per workload.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [RESULT_DIR]

Reads every ``result-*.json`` that ``run.py`` saved (by default under
``.bench_build/perfbench/``).  For each workload and metric it prints the
median over runs, the quartiles and the spread (interquartile distance
as a share of the median, the figure compared with each metric's bound
in ``BENCHMARK.json``).  It also prints the pooled tail of per-op time,
scaled to the reference speed (as ``op_s`` is) and as wall time:
the highest of the 99th, 95th, 90th, 75th and 50th percentiles that has
at least ten pooled ops beyond it, with the sample count.  That tail is
for information only; it has no bound.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import OUT, quartiles

TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, cuts[p - 1]
    return None, None


def load(directory):
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("result-*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["trace"]].append(record)
    return runs


def main(argv):
    directory = argv[1] if len(argv) > 1 else OUT
    runs = load(directory)
    if not runs:
        print(f"no results under {directory}", file=sys.stderr)
        return 1
    for (workload, traced), records in sorted(runs.items()):
        seeds = sorted({r["seed"] for r in records})
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"== {workload}  trace {int(traced)}  runs {len(records)}  "
              f"seeds {seeds}  failed {failed}/{attempted} ops")
        for name, first in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:44s} {med:>12.6g} {first['unit']:6s} "
                  f"q1 {q1:<10.6g} q3 {q3:<10.6g} spread {spread:.3f}")
        if not traced:
            for key, label in (("op_times_scaled", "scaled"), ("op_times", "wall")):
                pooled = [t for r in records for t in r.get(key, [])]
                p, value = tail(pooled)
                text = f"p{p} {value:.6g} s" if p else "too few ops for a tail"
                print(f"  pooled op time ({label}): {text} over {len(pooled)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
