"""Golden CLI output: the stdout of fixed command lines, byte for byte.

The lines are the console-script lines of the three benchmark workloads
at their smallest mesh sizes, a window holding 38 points under
``--jmax 40``, and two mirrored windows on the 2D model, whose end 0.8
is read from the solve at -0.8; with them one fixed-point root whose
F_j contradicts its counted sign is pinned.  Each runs in a fresh
process with one BLAS
thread, as the byte-identity figures are taken.  The last digits of the
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
    "bounds-mirrored-2d": "bounds --model maxwell2d --order 1 --mesh 6 --jitter 0.25 --seed 0 --window=-1.6,-0.8 --window 0.8,1.6 --jmax 3",
}


def _environment():
    """What the output's last digits depend on, as recorded with the files."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }


def _run(argv, cwd, script=SCRIPT):
    """The stdout of ``script`` (the CLI) for ``argv`` from a fresh process
    with one BLAS thread; fails on a nonzero exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
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
#: root j = 1 at t = 1.4, its tau, whether F_j contradicted the counted
#: sign at s_hat, and its evaluations
CONTRADICTED_ROOT = """
import json, logging
from eigenclose.fixed_point import optimal_shift
from eigenclose.maxwell2d import assemble_2d, structured_tri_mesh
messages = []
handler = logging.Handler()
handler.emit = lambda record: messages.append(record.getMessage())
logger = logging.getLogger("eigenclose.fixed_point")
logger.addHandler(handler)
logger.setLevel(logging.DEBUG)
forms = assemble_2d(structured_tri_mesh(4, 0.3, 0), 2).forms
root = optimal_shift(forms, 1.4, 1, "right")
contradicted = any("contradicts the counted sign" in m for m in messages)
print(json.dumps([root.tau, contradicted, root.iterations]))
"""


def test_a_contradicted_root_keeps_its_tau(tmp_path):
    # F_j at the predicted bracket's end contradicts the counted sign, and
    # the search goes on with eigensolve signs: the root evaluates 27
    # shifts, and its tau is still the pencil eigenvalue that seeded it
    _skip_unless_comparable()
    result = json.loads(_run([], tmp_path, CONTRADICTED_ROOT))
    assert result == [2.890419800041339, True, 27]


def regenerate():
    """Write every expected file and the environment they hold for."""
    GOLDEN.mkdir(exist_ok=True)
    for name, line in LINES.items():
        (GOLDEN / f"{name}.out").write_text(_run(line.split(), GOLDEN))
    (GOLDEN / "environment.json").write_text(json.dumps(_environment(), indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
