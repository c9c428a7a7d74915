"""Tests for the experiment harness CLI (invoked in-process via main)."""

import json

import numpy as np
import numpy.testing as npt
import pytest

import eigenclose.cli as cli
from eigenclose.cli import compact_enclosure, main
from eigenclose.enclosure import Enclosure
from eigenclose.forms import TrialForms, read_forms, write_forms

WORKED = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))


def worked_forms_path(tmp_path):
    path = tmp_path / "worked.forms"
    write_forms(WORKED, path)
    return str(path)


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
    def fake_enclosures(forms, window, j_max, tol):
        return [Enclosure(j=1, lower=1.8, upper=1.2,
                          t_lower_from=window[1], t_upper_from=window[0],
                          inconsistent=True)]

    monkeypatch.setattr(cli, "zm_enclosures", fake_enclosures)
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


def test_equiv_needs_shifts(capsys):
    code = main(["equiv", "--model", "dirac1d", "--order", "1", "--mesh", "6"])
    assert code == 2


# --- export-forms ------------------------------------------------------


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
