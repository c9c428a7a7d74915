"""Tests for the experiment harness CLI (invoked in-process via main, and
once in a fresh process to see Python's default warning filter)."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import eigenclose.cli as cli
import eigenclose.forms as forms_mod
from eigenclose.cli import compact_enclosure, main
from eigenclose.enclosure import Enclosure
from eigenclose.errors import DeflationWarning
from eigenclose.forms import TrialForms, read_forms, write_forms

WORKED = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))


def worked_forms_path(tmp_path):
    path = tmp_path / "worked.forms"
    write_forms(WORKED, path)
    return str(path)


def run_fresh(script, *argv):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    package, with Python's default warning filters."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )


# --- compact enclosure notation ----------------------------------------


def test_compact_enclosure_shared_prefix():
    assert compact_enclosure(2.7108, 2.7143) == "2.71^{43}_{08}"


def test_compact_enclosure_bracket_fallback():
    # no useful shared prefix: plain interval notation
    assert compact_enclosure(1.0, 2.0) == "[1.0, 2.0]"


def test_compact_enclosure_prefix_must_cover_decimal_point():
    out = compact_enclosure(0.999999999999, 1.000000000001)
    assert out == "[0.9999999999990, 1.0000000000010]"


def test_compact_enclosure_inconsistent_tag():
    assert compact_enclosure(2.0, 1.2) == "[2.0, 1.2] (inconsistent)"


def test_compact_enclosure_outward_rounding():
    # displayed digits must still enclose the interval
    out = compact_enclosure(1.23456781, 1.23456789, max_digits=8)
    assert out.startswith("1.234567")


# --- bounds ------------------------------------------------------------


def test_bounds_worked_model_exact_rows(tmp_path, capsys):
    code = main(
        ["bounds", "--model", worked_forms_path(tmp_path),
         "--window", "0.5,2.5", "--jmax", "2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "j,lower,upper,width,t_lower_from,t_upper_from,flags"
    first = lines[1].split(",")
    assert first[:3] == ["1", "1.0", "1.0"]
    second = lines[2].split(",")
    assert second[:3] == ["2", "2.0", "2.0"]


#: README's ``.forms`` example, the 2x2 model with the points 1 and 2
README_FORMS = (
    "2\n%M0\n1 1 1.0\n2 2 1.0\n%M1\n1 1 1.0\n2 2 2.0\n%M2\n1 1 1.0\n2 2 4.0\n"
)


def test_bounds_deflated_window_ends_warn_at_the_call_site(tmp_path, capsys):
    # a window end on a represented point deflates a kernel of Q_t there;
    # the warning names the CLI line that asked for the enclosures
    path = tmp_path / "readme.forms"
    path.write_text(README_FORMS)
    with pytest.warns(DeflationWarning) as record:
        code = main(
            ["bounds", "--model", str(path), "--window", "1,2.5", "--jmax", "2"]
        )
    assert code == 0
    assert [str(w.message) for w in record] == [
        "deflated a 1-dimensional kernel of Q_t at t=1"
    ]
    assert os.path.basename(record[0].filename) == "cli.py"
    assert capsys.readouterr().out.splitlines()[1:] == ["1,2.0,2.0,0.0,2.5,1.0,"]

    with pytest.warns(DeflationWarning) as record:
        assert main(["bounds", "--model", str(path), "--window", "1,2"]) == 0
    assert [str(w.message) for w in record] == [
        f"deflated a 1-dimensional kernel of Q_t at t={t}" for t in (1, 2)
    ]

    # touching windows both read the deflation at t=2; both warnings name
    # the same CLI line with the same text, so Python's default filter
    # prints the second no more, as a fresh process shows
    path = tmp_path / "three.forms"
    points = np.array([1.0, 2.0, 3.0])
    write_forms(TrialForms(np.eye(3), np.diag(points), np.diag(points**2)), path)
    script = "import sys; from eigenclose.cli import main; sys.exit(main())"
    argv = ["bounds", "--model", str(path), "--window", "1.5,2", "--window", "2,2.5"]
    run = run_fresh(script, *argv)
    with open(cli.__file__) as source:
        lines = source.read().splitlines()
    call = next(n for n, line in enumerate(lines, 1) if "= zm_enclosures_all(" in line)
    assert run.returncode == 0
    assert run.stderr.splitlines() == [
        f"{cli.__file__}:{call}: DeflationWarning: "
        "deflated a 1-dimensional kernel of Q_t at t=2",
        "  " + lines[call - 1].strip(),
    ]


def test_bounds_dirac1d_contains_truth(tmp_path, capsys):
    code = main(
        ["bounds", "--model", "dirac1d", "--order", "2", "--mesh", "8",
         "--window", "0.5,1.5", "--jmax", "1"]
    )
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    lower, upper, width = float(row[1]), float(row[2]), float(row[3])
    assert lower <= 1.0 <= upper
    npt.assert_allclose(width, upper - lower, rtol=1e-12)


def test_bounds_negative_window_syntax(capsys):
    # "=" form is required for a leading minus sign
    code = main(
        ["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "8",
         "--window=-1.5,-0.5", "--jmax", "1"]
    )
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[1]) <= -1.0 <= float(row[2])


def test_bounds_reports_the_first_failing_window_end_in_window_order(capsys):
    # both -2000 (the first window's right end) and 1000 (the second's
    # left end) see no spectrum on their side; window by window, -2000
    # fails first, whichever end is solved first
    code = main(
        ["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "6",
         "--window=-3000,-2000", "--window", "1000,1500"]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: no spectrum detectable left of t=-2000 in this trial subspace\n"
    )


def test_bounds_out_file_plus_table(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        ["bounds", "--model", worked_forms_path(tmp_path),
         "--window", "0.5,2.5", "--jmax", "2", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("j,lower,upper")
    table = capsys.readouterr().out
    assert "window (0.5, 2.5)" in table
    assert "j=1" in table and "width=" in table


def test_bounds_requires_window(capsys):
    code = main(["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "8"])
    assert code == 2


def test_bounds_requires_single_design_point(capsys):
    code = main(
        ["bounds", "--model", "dirac1d", "--order", "1", "--order", "2",
         "--mesh", "8", "--window", "0.5,1.5"]
    )
    assert code == 2


def test_bounds_missing_forms_file_is_config_error(tmp_path, capsys):
    code = main(
        ["bounds", "--model", str(tmp_path / "nope.forms"),
         "--window", "0.5,2.5"]
    )
    assert code == 2


def test_bounds_inconsistent_row_sets_exit_code(tmp_path, capsys, monkeypatch):
    def fake_enclosures(forms, window, j_max):
        return [Enclosure(j=1, lower=1.8, upper=1.2,
                          t_lower_from=window[1], t_upper_from=window[0],
                          inconsistent=True)]

    monkeypatch.setattr(
        cli, "zm_enclosures_all",
        lambda forms, windows, j_max: [fake_enclosures(forms, w, j_max) for w in windows],
    )
    out = tmp_path / "rows.csv"
    code = main(
        ["bounds", "--model", worked_forms_path(tmp_path),
         "--window", "0.5,2.5", "--out", str(out)]
    )
    assert code == 1
    assert "inconsistent" in out.read_text()
    assert "INCONSISTENT" in capsys.readouterr().out


def test_bounds_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "10",
            "--jitter", "0.3", "--seed", "5", "--window", "0.5,2.5",
            "--jmax", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- converge ----------------------------------------------------------


def test_converge_reports_slope(capsys):
    code = main(
        ["converge", "--model", "dirac1d", "--order", "1",
         "--mesh", "6", "--mesh", "8", "--mesh", "10",
         "--window", "0.5,1.5", "--jmax", "1"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(summary) == 1
    entry = summary[0]
    assert entry["r"] == 1 and entry["j"] == 1
    assert entry["points_used"] == 3
    assert 1.7 <= entry["slope"] <= 2.4  # P1 converges at order ~2


def test_converge_needs_three_meshes(capsys):
    code = main(
        ["converge", "--model", "dirac1d", "--order", "1",
         "--mesh", "6", "--mesh", "8", "--window", "0.5,1.5"]
    )
    assert code == 2


def test_converge_rejects_external_model(tmp_path, capsys):
    code = main(
        ["converge", "--model", worked_forms_path(tmp_path),
         "--mesh", "6", "--mesh", "8", "--mesh", "10",
         "--window", "0.5,2.5"]
    )
    assert code == 2


def test_converge_csv_out(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(
        ["converge", "--model", "dirac1d", "--order", "1",
         "--mesh", "6", "--mesh", "8", "--mesh", "10",
         "--window", "0.5,1.5", "--jmax", "1", "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "h,r,j,lower,upper,width,true_value,error_upper"


# --- pollute -----------------------------------------------------------


def test_pollute_flags_spurious_galerkin_values(capsys):
    code = main(
        ["pollute", "--model", "maxwell2d", "--order", "1", "--mesh", "5",
         "--jitter", "0.25", "--seed", "7", "--window", "0.2,0.8"]
    )
    assert code == 0  # galerkin pollution alone is not a failure
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("kind,j,value")
    galerkin = [l for l in lines[1:] if l.startswith("galerkin")]
    assert len(galerkin) >= 1
    assert all(l.split(",")[8] == "1" for l in galerkin)  # all spurious
    # the certified route emits nothing inside the gap
    assert not any(l.startswith("enclosure") for l in lines[1:])


def test_pollute_flag_tol_monotonicity(capsys):
    args = ["pollute", "--model", "maxwell2d", "--order", "1", "--mesh", "5",
            "--jitter", "0.25", "--seed", "7", "--window", "0.2,0.8"]
    main(args)
    strict = capsys.readouterr().out
    main(args + ["--flag-tol", "10"])
    lax = capsys.readouterr().out

    def spurious_count(text):
        return sum(
            line.split(",")[8] == "1" for line in text.strip().splitlines()[1:]
        )

    assert spurious_count(lax) <= spurious_count(strict)
    assert spurious_count(lax) == 0  # a huge tolerance forgives everything


def test_pollute_requires_maxwell(capsys):
    code = main(
        ["pollute", "--model", "dirac1d", "--order", "1", "--mesh", "8",
         "--window", "0.2,0.8"]
    )
    assert code == 2


def test_maxwell_window_through_zero_rejected(capsys):
    code = main(
        ["bounds", "--model", "maxwell2d", "--order", "1", "--mesh", "4",
         "--window=-0.5,0.5"]
    )
    assert code == 2


# --- equiv -------------------------------------------------------------


def test_equiv_passes_on_healthy_model(capsys):
    code = main(
        ["equiv", "--model", "dirac1d", "--order", "1", "--mesh", "6",
         "--shift", "0.6", "--jmax", "2"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["max_gap"] <= report["threshold"]
    assert report["rows"] == 4  # two indices, two sides
    assert report["skipped"] == 0


def test_equiv_counts_skipped_sides(tmp_path, capsys):
    # nothing below 0.5 in the worked model: the left solve is skipped
    code = main(
        ["equiv", "--model", worked_forms_path(tmp_path),
         "--shift", "0.5", "--jmax", "1"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == 2  # the skipped side still gets a row
    assert report["skipped"] == 1


def test_equiv_skips_indices_beyond_the_trial_dimension(capsys):
    # n = 6: indices 7 and 8 are undetectable on both sides, like the six
    # rows of indices 1..6 that lie on the far side of the shift
    code = main(
        ["equiv", "--model", "dirac1d", "--order", "1", "--mesh", "3",
         "--shift", "0.6", "--jmax", "8"]
    )
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["rows"], report["skipped"]) == (16, 10)
    assert captured.err == ""


def test_equiv_needs_shifts(capsys):
    code = main(["equiv", "--model", "dirac1d", "--order", "1", "--mesh", "6"])
    assert code == 2


# --- export-forms ------------------------------------------------------


def test_equiv_fails_on_corrupted_forms(tmp_path, capsys):
    # M2 scaled by 0.95: Q_s is indefinite near the spectrum, and the
    # fixed-point route reports no gap rows for such forms
    from eigenclose.dirac1d import assemble_1d, uniform_mesh

    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=0), 2).forms
    path = tmp_path / "bad.forms"
    write_forms(
        TrialForms(
            np.asarray(forms.M0, dtype=float),
            np.asarray(forms.M1, dtype=float),
            0.95 * np.asarray(forms.M2, dtype=float),
        ),
        path,
    )
    code = main(
        ["equiv", "--model", str(path), "--shift", "0.6", "--shift", "1.4",
         "--shift", "2.5", "--jmax", "2"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "corrupted" in captured.err


def _slightly_inconsistent_forms(tmp_path):
    # M2 scaled by 0.999: the fixed-point route and the pencil still
    # produce numbers for these forms; only the consistency gate sees it
    from eigenclose.dirac1d import assemble_1d, uniform_mesh

    forms = assemble_1d(uniform_mesh(6), 2).forms
    path = tmp_path / "slight.forms"
    write_forms(
        TrialForms(
            np.asarray(forms.M0, dtype=float),
            np.asarray(forms.M1, dtype=float),
            0.999 * np.asarray(forms.M2, dtype=float),
        ),
        path,
    )
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["equiv", "--shift", "0.6", "--shift", "1.4", "--jmax", "2"],
        ["bounds", "--window", "0.5,2.5", "--jmax", "2"],
    ],
)
def test_inconsistent_forms_file_fails_the_gate(tmp_path, capsys, argv):
    code = main(argv + ["--model", _slightly_inconsistent_forms(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "consistency gate" in captured.err and "corrupted" in captured.err


def test_gate_floor_passes_roundoff_below_tol(tmp_path, capsys):
    # lambda_min(S) of these consistent forms is -2e-16 times max diag(M2),
    # roundoff below the gate's floor n u = 4.4e-15 (n = 40) though not
    # below --tol 1e-16; M2 scaled by 0.999 (-1e-3) still fails
    good = tmp_path / "f.forms"
    argv = ["export-forms", "--model", "dirac1d", "--order", "2", "--mesh", "5"]
    assert main(argv + ["--out", str(good)]) == 0
    forms = read_forms(good)
    bad = tmp_path / "bad.forms"
    write_forms(TrialForms(forms.M0, forms.M1, 0.999 * forms.M2), bad)
    capsys.readouterr()
    equiv = ["equiv", "--shift", "0.6", "--shift", "1.4"]
    assert main(equiv + ["--model", str(good), "--tol", "1e-16"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    for tol in (["--tol", "1e-16"], []):
        assert main(equiv + ["--model", str(bad)] + tol) == 1
        assert "consistency gate" in capsys.readouterr().err


def test_tol_is_the_tolerance_of_the_forms(tmp_path, capsys, monkeypatch):
    # M0 = diag(1, 1e-8) passes the default gate, not the one at 1e-6
    weak = tmp_path / "weak.forms"
    write_forms(TrialForms(np.diag([1.0, 1e-8]), np.diag([1.0, 2e-8]),
                           np.diag([1.0, 4e-8])), weak)
    bounds = ["bounds", "--model", str(weak), "--window", "0.5,2.5"]
    assert main(bounds) == 0
    capsys.readouterr()
    assert main(bounds + ["--tol", "1e-6"]) == 1
    assert _one_line_error(capsys)
    # a built-in model's forms take --tol too; they are copied, and M0
    # factored again, only for a tol other than their own
    seen, factored = [], []
    real, real_factor = cli.zm_enclosures_all, forms_mod._checked_potrf
    monkeypatch.setattr(
        cli, "zm_enclosures_all",
        lambda forms, *args: seen.append(forms) or real(forms, *args),
    )
    monkeypatch.setattr(
        forms_mod, "_checked_potrf",
        lambda m, tol: factored.append(tol) or real_factor(m, tol),
    )
    run = ["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "6",
           "--window", "0.5,1.5"]
    assert main(run) == 0 and factored == [cli.DEFAULT_TOL]
    # the copy is built from the stored entries, with no dense M0, M1, M2
    dense = []
    real_dense = forms_mod.TrialForms._dense
    monkeypatch.setattr(
        forms_mod.TrialForms, "_dense",
        lambda forms, k: dense.append(k) or real_dense(forms, k),
    )
    assert main(run + ["--tol", "1e-9"]) == 0
    assert factored[1:] == [cli.DEFAULT_TOL, 1e-9] and dense == []
    assert [forms.tol for forms in seen] == [cli.DEFAULT_TOL, 1e-9]
    stored = [(*forms.pattern(), *forms._values) for forms in seen]
    assert all(np.array_equal(a, b) for a, b in zip(*stored))


def test_export_forms_roundtrip(tmp_path):
    out = tmp_path / "model.forms"
    code = main(
        ["export-forms", "--model", "dirac1d", "--order", "1", "--mesh", "6",
         "--out", str(out)]
    )
    assert code == 0
    from eigenclose.dirac1d import assemble_1d, uniform_mesh

    forms = assemble_1d(uniform_mesh(6), 1).forms
    back = read_forms(out)
    # the text format carries doubles: reading back equals the double cast
    npt.assert_array_equal(back.M0, np.asarray(forms.M0, dtype=float))
    npt.assert_array_equal(back.M1, np.asarray(forms.M1, dtype=float))
    npt.assert_array_equal(back.M2, np.asarray(forms.M2, dtype=float))


def test_export_forms_needs_out(capsys):
    code = main(["export-forms", "--model", "dirac1d", "--order", "1",
                 "--mesh", "6"])
    assert code == 2


def test_export_mesh_for_maxwell(tmp_path):
    forms_out = tmp_path / "cavity.forms"
    mesh_out = tmp_path / "cavity.mesh"
    code = main(
        ["export-forms", "--model", "maxwell2d", "--order", "1", "--mesh", "3",
         "--jitter", "0.2", "--seed", "4",
         "--out", str(forms_out), "--mesh-out", str(mesh_out)]
    )
    assert code == 0
    assert mesh_out.read_text().startswith("vertices 16")


@pytest.mark.parametrize("argv", [
    ["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "4",
     "--window", "0.5,1.5", "--out", "{tmp}"],
    ["export-forms", "--model", "maxwell2d", "--order", "1", "--mesh", "4",
     "--out", "{tmp}"],
    ["export-forms", "--model", "maxwell2d", "--order", "1", "--mesh", "4",
     "--out", "{tmp}/x.forms", "--mesh-out", "{tmp}/missing/m.txt"],
])
def test_unwritable_output_file_is_one_line_usage_error(argv, tmp_path, capsys):
    # an --out that names a directory, and a --mesh-out in no directory
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output file: ")


def test_export_mesh_rejected_for_1d(tmp_path, capsys):
    code = main(
        ["export-forms", "--model", "dirac1d", "--order", "1", "--mesh", "6",
         "--out", str(tmp_path / "x.forms"),
         "--mesh-out", str(tmp_path / "x.mesh")]
    )
    assert code == 2


# --- config files ------------------------------------------------------


def test_config_file_drives_a_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[experiment]\nmodel = dirac1d\norder = 1\nmesh = 8\n"
        "window = 0.5,1.5\njmax = 1\n"
    )
    code = main(["bounds", "--config", str(cfg)])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[1]) <= 1.0 <= float(row[2])


def test_config_flags_override_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\nmodel = dirac1d\norder = 1\nmesh = 8\n"
                   "window = 0.5,1.5\n")
    code = main(["bounds", "--config", str(cfg), "--window", "1.5,2.5"])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    # the flag window wins: the certified point is 2, not 1
    assert float(row[1]) <= 2.0 <= float(row[2])


def test_config_file_is_read_as_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("# Zimmermann–Mertins\n[run]\nmodel = dirac1d\nmesh = 8\n"
                    "window = 0.5,1.5\njmax = 1\n".encode("utf-8"))
    assert main(["bounds", "--config", str(cfg)]) == 0
    capsys.readouterr()
    # a byte that is not UTF-8 is a one-line usage error, not a traceback
    cfg.write_bytes(b"[run]\nmodel = dirac1d\xff\n")
    assert main(["bounds", "--config", str(cfg), "--window", "0.5,1.5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config file: ")


def test_config_duplicate_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("[a]\nmesh = 8\n[b]\nmesh = 10\n")
    code = main(["bounds", "--config", str(cfg), "--model", "dirac1d",
                 "--window", "0.5,1.5"])
    assert code == 2
    assert "given in both" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nmodle = dirac1d\n")
    code = main(["bounds", "--config", str(cfg), "--window", "0.5,1.5"])
    assert code == 2
    assert "modle" in capsys.readouterr().err


def test_config_semicolon_separated_windows(tmp_path, capsys):
    cfg = tmp_path / "multi.cfg"
    cfg.write_text(
        "[experiment]\nmodel = dirac1d\norder = 1\nmesh = 10\n"
        "window = 0.5,1.5 ; 1.5,2.5\njmax = 1\n"
    )
    code = main(["bounds", "--config", str(cfg)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + one row per window


# --- validation odds and ends ------------------------------------------


def test_unknown_model_rejected(capsys):
    code = main(["bounds", "--model", "helmholtz3d", "--window", "0.5,1.5"])
    assert code == 2


def test_bad_window_order_rejected(capsys):
    code = main(["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "8",
                 "--window", "2.5,0.5"])
    assert code == 2


def test_bad_jitter_rejected(capsys):
    code = main(["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "8",
                 "--window", "0.5,1.5", "--jitter", "1.5"])
    assert code == 2


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


def test_non_finite_forms_value_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "nan.forms"
    path.write_text("2\n%M0\n1 1 1.0\n2 2 nan\n%M1\n%M2\n")
    code = main(["bounds", "--model", str(path), "--window", "0.5,1.5"])
    assert code == 1  # the exit code of every malformed .forms entry
    assert _one_line_error(capsys)


def test_negative_seed_rejected(capsys):
    code = main(["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "6",
                 "--jitter", "0.3", "--seed=-1", "--window", "0.5,1.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"


def test_jitter_beyond_2d_mesh_limit_rejected(capsys):
    code = main(["bounds", "--model", "maxwell2d", "--order", "1", "--mesh", "4",
                 "--window", "0.5,1.5", "--jitter", "0.7"])
    assert code == 2
    assert _one_line_error(capsys)


def test_infinite_window_end_rejected(capsys):
    code = main(["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "8",
                 "--window", "0.5,inf"])
    assert code == 2
    assert _one_line_error(capsys)


def test_infinite_shift_rejected(capsys):
    code = main(["equiv", "--model", "dirac1d", "--order", "1", "--mesh", "8",
                 "--shift", "inf"])
    assert code == 2
    assert _one_line_error(capsys)


def test_only_pollute_and_converge_build_the_exact_spectrum(capsys, monkeypatch):
    # bounds and equiv never read it, so huge window ends or shifts cost
    # them nothing
    def refuse(model, intervals):
        raise AssertionError("the exact spectrum was built")

    monkeypatch.setattr(cli, "_nearest_exact", refuse)
    assert main(["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "8",
                 "--window", "0.5,1.5"]) == 0
    assert main(["equiv", "--model", "maxwell2d", "--order", "1", "--mesh", "3",
                 "--shift", "1e5"]) == 0


def test_exact_spectrum_reaches_only_the_compared_values(capsys, monkeypatch):
    # sized by the window end, maxwell2d's spectrum out to 1e5 would take
    # 1e10 steps
    reaches = []
    real = cli.exact_spectrum_2d

    def counted(reach):
        reaches.append(reach)
        return real(reach)

    monkeypatch.setattr(cli, "exact_spectrum_2d", counted)
    assert main(["pollute", "--model", "maxwell2d", "--order", "1", "--mesh", "4",
                 "--window", "0.2,1e5", "--jmax", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    compared = [abs(float(row[key])) for row in rows
                for key in ("value", "lower", "upper") if row[key]]
    assert any(row["kind"] == "enclosure" for row in rows)
    assert reaches == [2.0 + max(compared)]


def test_a_compared_value_beyond_the_exact_reach_is_refused():
    # the window's right end pairs lower bounds of about 1.9e84, flagged
    # inconsistent; the 2D exact spectrum out to them would take about
    # 1e168 steps to list.  A fresh process shows the one stderr line
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = "import sys; from eigenclose.cli import main; sys.exit(main())"
    argv = ["pollute", "--model", "maxwell2d", "--order", "1", "--mesh", "4",
            "--window", "0.2,1e100", "--jmax", "2"]
    run = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == (
        "error: cannot compare 1.94267e+84 with the exact spectrum, which is "
        "listed only out to |value| <= 1000\n"
    )


@pytest.mark.parametrize("argv", [
    ["equiv", "--model", "dirac1d", "--order", "1", "--mesh", "6", "--shift", "1e200"],
    ["bounds", "--model", "dirac1d", "--order", "3", "--mesh", "12",
     "--window", "1e300,1e301"],
    ["equiv", "--model", "maxwell2d", "--order", "1", "--mesh", "3",
     "--shift=-1e160"],
    ["bounds", "--model", "maxwell2d", "--order", "1", "--mesh", "3",
     "--window", "1e200,1e201"],
    # the exact spectrum is not sized by the window end, which overflows
    ["converge", "--model", "dirac1d", "--order", "1", "--mesh", "4", "--mesh", "5",
     "--mesh", "6", "--window", "1e300,1e301"],
])
def test_overflowing_shift_is_one_line_usage_error(argv):
    # Q_t overflows double past |t| ~ 1e154 on both models; a fresh
    # process shows that no numpy warning reaches stderr either
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = "import sys; from eigenclose.cli import main; sys.exit(main())"
    run = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    t = argv[-1].split("=")[-1].split(",")[0]
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == (
        f"error: the shifted forms overflow double at t={float(t):g}; "
        "the shift is too large\n"
    )


@pytest.mark.parametrize("argv", [
    ["bounds", "--window", "0.5,1.5", "--tol", "nan"],
    ["bounds", "--window", "0.5,1.5", "--tol", "-1"],
    ["equiv", "--shift", "0.6", "--fp-tol", "nan"],
    ["pollute", "--model", "maxwell2d", "--window", "0.2,0.8", "--flag-tol", "-1"],
], ids=["tol-nan", "tol-negative", "fp-tol-nan", "flag-tol-negative"])
def test_bad_tolerance_rejected(argv, capsys):
    code = main(argv + ["--order", "1", "--mesh", "4"])
    assert code == 2
    assert _one_line_error(capsys)


# --- one parser for flags and config-file values -----------------------


def test_flag_semicolon_separated_windows(capsys):
    code = main(["bounds", "--model", "dirac1d", "--order", "1", "--mesh", "10",
                 "--window", "0.5,1.5;1.5,2.5", "--jmax", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + one row per window


@pytest.mark.parametrize("flag", [
    ["--seed", "1.5"], ["--order", "x"], ["--mesh", "nan"],
])
def test_unparsable_flag_is_one_line_error(flag, capsys):
    code = main(["bounds", "--model", "dirac1d", "--window", "0.5,1.5", *flag])
    assert code == 2
    assert _one_line_error(capsys)


#: one value per key, each different from the key's default
KEY_SAMPLES = {
    "model": "maxwell2d", "order": "1,2", "mesh": "4;6", "jitter": "0.25",
    "seed": "7", "window": "0.5,1.5;1.5,2.5", "shift": "0.6,1.4",
    "jmax": "3", "tol": "1e-8", "fp_tol": "1e-9", "flag_tol": "0.1",
    "out": "rows.csv", "mesh_out": "cavity.mesh",
}


@pytest.mark.parametrize("key", [k.name for k in cli.KEYS])
def test_flag_and_config_file_parse_alike(key, tmp_path):
    text = KEY_SAMPLES[key]
    path = tmp_path / "one.cfg"
    path.write_text(f"[experiment]\n{key} = {text}\n")
    parser = cli.build_parser()
    from_file = cli.build_config(parser.parse_args(["bounds", "--config", str(path)]))
    flag = "--" + key.replace("_", "-")
    from_flag = cli.build_config(parser.parse_args(["bounds", f"{flag}={text}"]))
    assert from_flag == from_file != cli.ExperimentConfig()


def test_repeated_main_calls_print_what_fresh_calls_print(tmp_path, capsys):
    # the parser is built once per process: list flags given in one call
    # must not leak into the next
    path = worked_forms_path(tmp_path)
    runs = [
        ["equiv", "--model", path, "--shift", "1.5", "--shift", "2.5"],
        ["equiv", "--model", path, "--shift", "0.5", "--jmax", "2"],
        ["bounds", "--model", path, "--window", "0.5,1.5", "--window", "1.5,2.5"],
        ["bounds", "--model", path, "--window", "0.5,2.5", "--jmax", "2"],
    ]

    def outputs(fresh):
        printed = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
            printed.append((main(argv), capsys.readouterr()))
        return printed

    assert outputs(fresh=False) == outputs(fresh=True)


def test_a_run_of_each_command_leaves_scipy_linalg_unimported():
    # the package loads scipy's LAPACK and BLAS wrappers from their files:
    # importing the scipy.linalg package would more than double start-up
    script = (
        "import sys; from eigenclose.cli import main\n"
        "for argv in (\n"
        "    ['bounds', '--model', 'dirac1d', '--order', '1', '--mesh', '4',\n"
        "     '--window', '0.5,1.5'],\n"
        "    ['pollute', '--model', 'maxwell2d', '--order', '1', '--mesh', '3',\n"
        "     '--window', '0.5,1.5'],\n"
        "    ['equiv', '--model', 'dirac1d', '--order', '1', '--mesh', '4',\n"
        "     '--shift', '0.6', '--jmax', '1']):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted({'scipy.linalg', 'numpy.f2py'} & set(sys.modules)))\n"
    )
    run = run_fresh(script)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv, code", [([], 2), (["bogus"], 2), (["equiv", "--help"], 0)]
)
def test_command_argument_usage_exits(argv, code, capsys):
    # no command and an unknown one are usage errors; every command
    # prints the one shared help
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "--window" in out and "export-forms" in out
    else:
        assert "usage: eigenclose" in err
