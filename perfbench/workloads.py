"""The benchmark's workloads: CLI argument lists, result counts and checks.

Each workload is one ``eigenclose`` subcommand line.  The seed is the
only input that varies between runs; it reaches the program as the CLI
``--seed``, which jitters the mesh, so every seed is a different
problem of the same size.

An op is kept short (a quarter to half a second on one core) on purpose:
a shared machine's core changes speed from second to second, and each
op's time is scaled by a reference block timed right before and right
after it (see ``calibrate.py``).  The block tracks the speed the op ran
at only when the op is short.  Each workload names the block that does
the kind of work its op is made of.

A check returns a list of problems with one op's output (empty when the
op is correct).  The checks compare against the models' exact spectra,
never against the program's own distance or flag columns.
"""

import csv
import io
import json
from dataclasses import dataclass

#: sizes used by the benchmark; ``tiny`` shrinks the mesh for smoke tests
BOUNDS_1D = "bounds --model dirac1d --order 3 --mesh {mesh} --jitter 0.3 --seed {seed} --window 0.5,2.5 --window=-2.5,-0.5 --jmax 2"
POLLUTE_2D = "pollute --model maxwell2d --order 1 --mesh {mesh} --jitter 0.25 --seed {seed} --window 0.2,0.8 --window 0.8,1.6 --window 1.6,2.3 --jmax 3"
EQUIV_1D = "equiv --model dirac1d --order 2 --mesh {mesh} --jitter 0.3 --seed {seed} --shift 0.6 --shift 1.4 --shift 2.5 --jmax 1"


def _csv_rows(stdout):
    return list(csv.DictReader(io.StringIO(stdout)))


def _contains(values, lower, upper):
    return any(lower <= v <= upper for v in values)


def bounds_results(stdout):
    return len(_csv_rows(stdout))


def check_bounds(rc, stdout):
    from eigenclose.dirac1d import exact_spectrum_1d

    exact = [v for v in exact_spectrum_1d(2) if v != 0.0]  # -2, -1, 1, 2
    rows = _csv_rows(stdout)
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if len(rows) != 4:
        problems.append(f"{len(rows)} rows, expected 4")
    for row in rows:
        lower, upper = float(row["lower"]), float(row["upper"])
        if row["flags"]:
            problems.append(f"row j={row['j']} flagged {row['flags']!r}")
        if not _contains(exact, lower, upper):
            problems.append(f"[{lower!r}, {upper!r}] holds no eigenvalue")
    return problems


def pollute_results(stdout):
    return sum(row["kind"] == "enclosure" for row in _csv_rows(stdout))


def check_pollute(rc, stdout):
    from eigenclose.maxwell2d import exact_spectrum_2d

    exact = exact_spectrum_2d(4.3)  # reach of the largest window end + 2
    rows = _csv_rows(stdout)
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    enclosures = [r for r in rows if r["kind"] == "enclosure"]
    if not enclosures:
        problems.append("no enclosure rows")
    for row in enclosures:
        lower, upper = float(row["lower"]), float(row["upper"])
        if not _contains(exact, lower, upper):
            problems.append(f"[{lower!r}, {upper!r}] holds no eigenvalue")
    # The paper's contrast: Galerkin values far from the spectrum next to
    # certified rows.  Which window holds them depends on the mesh; on
    # many seeds the gap (0.2, 0.8) holds none, so any window counts.
    spurious = [
        r for r in rows if r["kind"] == "galerkin"
        and min(abs(e - float(r["value"])) for e in exact) > 0.05
    ]
    if not spurious:
        problems.append("no spurious Galerkin value")
    return problems


def equiv_results(stdout):
    summary = json.loads(stdout)
    return summary["rows"] - summary["skipped"]


def check_equiv(rc, stdout):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        summary = json.loads(stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    if summary.get("pass") is not True:
        problems.append("audit did not pass")
    if summary.get("skipped") != 0:
        problems.append(f"{summary.get('skipped')} skipped rows")
    if summary.get("rows") != 6:  # 3 shifts x jmax 1 x 2 sides
        problems.append(f"{summary.get('rows')} rows, expected 6")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    mesh: int
    tiny_mesh: int
    check: object
    results: object
    calibration: str  # the reference block of calibrate.py

    def argv(self, seed, tiny=False):
        mesh = self.tiny_mesh if tiny else self.mesh
        return self.template.format(mesh=mesh, seed=seed).split()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds-1d", BOUNDS_1D, 40, 12, check_bounds, bounds_results, "dense"),
        Workload("pollute-2d", POLLUTE_2D, 8, 6, check_pollute, pollute_results, "dense"),
        Workload("equiv-1d", EQUIV_1D, 10, 5, check_equiv, equiv_results, "small"),
    )
}
