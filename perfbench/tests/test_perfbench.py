"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import eigenclose.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import ROOT, Span, Tracer, installed_wrappers, op_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _synthetic():
    # op 1: root [0, 10] > zm_eigen [1, 5] > shift [2, 3]; local_counting [6, 9]
    return [
        Span(ROOT, 0.0, 10.0, -1, 1),
        Span("enclosure.zm_eigen", 1.0, 5.0, 0, 1, {"t": 0.5, "n_tau": 10}),
        Span("forms.shift", 2.0, 3.0, 1, 1),
        Span("enclosure.local_counting", 6.0, 9.0, 0, 1),
        Span("linalg.cholesky_spd", 6.5, 7.0, 3, 1),
        # a span of another op must not leak into op 1
        Span(ROOT, 20.0, 21.0, -1, 2),
        Span("forms.shift", 20.0, 20.5, 5, 2),
    ]


def test_self_time_arithmetic():
    assert self_times(_synthetic()) == [3.0, 3.0, 1.0, 2.5, 0.5, 0.5, 0.5]


def test_op_metrics_on_synthetic_spans():
    counts = {(1, "numpy.linalg.eigh"): 3, (2, "numpy.linalg.eigh"): 7}
    m = op_metrics(_synthetic(), counts, 1)
    assert m["enclosure.zm_eigen.busy_s"] == 4.0
    assert m["enclosure.zm_eigen.self_s"] == 3.0
    assert m["enclosure.local_counting.self_s"] == 2.5
    assert m["forms.shift.calls"] == 1
    assert m["cli.self_s"] == 3.0  # 10 s minus the 4 s and 3 s top-level spans
    assert m["enclosure.zm_eigen.distinct_shift_ratio"] == 1.0
    # 3 numpy decompositions + 1 cholesky_spd over zm_eigen + local_counting
    assert m["linalg.dense_decomps_per_shift"] == 2.0
    assert set(m) | {"trace.overhead_frac"} == set(run.declared_units("per_layer"))


def test_busy_time_counts_nested_same_name_once():
    spans = [Span(ROOT, 0.0, 4.0, -1, 1),
             Span("forms.shift", 0.0, 3.0, 0, 1),
             Span("forms.shift", 1.0, 2.0, 1, 1)]
    m = op_metrics(spans, {}, 1)
    assert m["forms.shift.busy_s"] == 3.0
    assert m["forms.shift.calls"] == 2


def test_uninstall_restores_every_original():
    original = eigenclose.cli.zm_enclosures
    tracer = Tracer()
    tracer.install()
    try:
        assert eigenclose.cli.zm_enclosures is not original
        assert "eigenclose.enclosure.zm_eigen" in installed_wrappers()
        assert "numpy.linalg.eigh" in installed_wrappers()
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert eigenclose.cli.zm_enclosures is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(name, trace, capsys):
    config = {"workload": name, "seed": 3, "seconds": 0, "trace": trace, "tiny": True}
    worker.run(config, eigenclose.cli)
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == (4 if trace else 3)
    assert installed_wrappers() == []
    if trace:
        assert set(record["layers"]) | {"trace.overhead_frac"} == set(run.declared_units("per_layer"))


def test_traced_counts_of_equiv_are_exact(capsys):
    config = {"workload": "equiv-1d", "seed": 5, "seconds": 0, "trace": 1, "tiny": True}
    worker.run(config, eigenclose.cli)
    layers = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["layers"]
    assert layers["enclosure.zm_eigen.calls"] == [6, 6]
    assert layers["enclosure.zm_eigen.distinct_shift_ratio"] == [3 / 6, 3 / 6]
    assert layers["fixed_point.optimal_shift.calls"] == [6, 6]


def test_scaled_time_follows_the_reference_block():
    for kind, ref in calibrate.REFERENCE_S.items():
        cal = calibrate.Calibration(kind)
        assert cal.scaled(0.5, ref, ref) == 0.5
        # a core half as fast doubles both the op and the block
        assert cal.scaled(1.0, 2 * ref, 2 * ref) == 0.5
        assert cal.time() > 0
    assert {w.calibration for w in WORKLOADS.values()} == set(calibrate.REFERENCE_S)


def test_unknown_workload_exits_without_result(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
