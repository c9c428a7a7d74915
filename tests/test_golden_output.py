"""Golden CLI output: the stdout of fixed command lines, byte for byte.

The lines are the console-script lines of the three benchmark workloads
at their smallest mesh sizes, a window holding 38 points under
``--jmax 40``, that window with its mirror image, whose ends 0.5 and 40
are read through the mirror of the solves at -0.5 and -40 (32 tau of
each side read polished, 6 not), two mirrored windows on the 2D model,
whose end 0.8 is read from the solve at -0.8, four mirrored and
touching windows on the 2D model, whose 6 ends are 3 solves, and three
overlapping windows on the 1D model, whose 6 ends are 3 solves.  Each
runs in a fresh process with one BLAS thread, as the byte-identity
figures are taken.  With them one fixed-point root is pinned, the same
at one and two BLAS threads.  The last digits of the
output depend on the numpy and scipy builds, the machine and the width
of longdouble, so the comparison runs only where all four match what
the expected files were recorded with, and is skipped, naming what
differs, elsewhere.

Regenerate the expected files (after a change meant to move the
output) with::

    PYTHONPATH=src python tests/test_golden_output.py
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

GOLDEN = pathlib.Path(__file__).with_name("golden")
SRC = pathlib.Path(__file__).parents[1] / "src"
SCRIPT = "import sys; from eigenclose.cli import main; sys.exit(main())"

LINES = {
    "bounds-1d": "bounds --model dirac1d --order 3 --mesh 12 --jitter 0.3 --seed 0 --window 0.5,2.5 --window=-2.5,-0.5 --jmax 2",
    "pollute-2d": "pollute --model maxwell2d --order 1 --mesh 6 --jitter 0.25 --seed 0 --window 0.2,0.8 --window 0.8,1.6 --window 1.6,2.3 --jmax 3",
    "equiv-1d": "equiv --model dirac1d --order 2 --mesh 5 --jitter 0.3 --seed 0 --shift 0.6 --shift 1.4 --shift 2.5 --jmax 1",
    "bounds-38-points": "bounds --model dirac1d --order 3 --mesh 30 --jitter 0.3 --seed 0 --window 0.5,40 --jmax 40",
    "bounds-mirrored-38-points": "bounds --model dirac1d --order 3 --mesh 30 --jitter 0.3 --seed 0 --window=-40,-0.5 --window 0.5,40 --jmax 40",
    "bounds-mirrored-2d": "bounds --model maxwell2d --order 1 --mesh 6 --jitter 0.25 --seed 0 --window=-1.6,-0.8 --window 0.8,1.6 --jmax 3",
    "bounds-mirrored-touching-2d": "bounds --model maxwell2d --order 1 --mesh 8 --jitter 0.25 --seed 3 --window=-2.3,-1.6 --window=-1.6,-0.8 --window 0.8,1.6 --window 1.6,2.3 --jmax 3",
    "bounds-overlapping-1d": "bounds --model dirac1d --order 2 --mesh 8 --jitter 0.3 --seed 1 --window 0.5,1.5 --window 1.5,2.5 --window 0.5,2.5 --jmax 2",
}


def _environment():
    """What the output's last digits depend on, as recorded with the files."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }


def _run(argv, cwd, script=SCRIPT, threads=1):
    """The stdout of ``script`` (the CLI) for ``argv`` from a fresh process
    with ``threads`` BLAS threads; fails on a nonzero exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    threads = str(threads)
    env.update(
        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads
    )
    run = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env=env, cwd=cwd, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def _skip_unless_comparable():
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    here = _environment()
    differ = [
        f"{k} {recorded[k]} recorded, {here[k]} here"
        for k in recorded
        if recorded[k] != here[k]
    ]
    if differ:
        pytest.skip("golden output not comparable: " + "; ".join(differ))


@pytest.mark.parametrize("name", sorted(LINES))
def test_cli_output_is_byte_identical(name, tmp_path):
    _skip_unless_comparable()
    expected = (GOLDEN / f"{name}.out").read_text()
    assert _run(LINES[name].split(), tmp_path) == expected


#: maxwell2d order 2 on the 4 x 4 mesh of jitter 0.3, seed 0: the right
#: root j = 1 at t = 1.4, its s_hat (as the hex of its bits), tau and
#: counted shifts
ROOT = """
import json
from eigenclose.fixed_point import optimal_shift
from eigenclose.maxwell2d import assemble_2d, structured_tri_mesh
forms = assemble_2d(structured_tri_mesh(4, 0.3, 0), 2).forms
root = optimal_shift(forms, 1.4, 1, "right")
print(json.dumps([float(root.s_hat).hex(), root.tau, root.iterations]))
"""


def test_a_root_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # every sign of the search is an inertia count, and the predicted
    # bracket holds in 3 counted shifts at either thread count, to the
    # same s_hat bits; its tau is the pencil eigenvalue that seeded it
    _skip_unless_comparable()
    results = [json.loads(_run([], tmp_path, ROOT, threads)) for threads in (1, 2)]
    assert results[0] == results[1]
    s_hat, tau, iterations = results[0]
    assert float.fromhex(s_hat) == 1.5729852528666113
    assert (tau, iterations) == (2.890419800041339, 3)


def regenerate():
    """Write every expected file and the environment they hold for."""
    GOLDEN.mkdir(exist_ok=True)
    for name, line in LINES.items():
        (GOLDEN / f"{name}.out").write_text(_run(line.split(), GOLDEN))
    (GOLDEN / "environment.json").write_text(json.dumps(_environment(), indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
