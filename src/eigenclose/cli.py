"""Command-line experiment harness.

Commands
--------
The first argument names the command; every command takes the same
flags, one per experiment key, and ignores the keys it does not use.

``bounds``
    Certified enclosure table for one model / order / mesh over one or
    more windows.  CSV columns ``j, lower, upper, width, t_lower_from,
    t_upper_from, flags``.  Exit 0 iff no row is flagged inconsistent.
``converge``
    Mesh-refinement study: enclosure widths against the mesh size with a
    least-squares slope per (order, index).  Needs at least three mesh
    sizes.  JSON summary on stdout, CSV rows via ``--out``.
``pollute``
    Side-by-side table of raw Galerkin values and certified enclosures
    on the 2D model, with spurious values flagged by their distance to
    the exact spectrum.  Exit 1 if a *certified* row is flagged (which
    would mean containment failed).
``equiv``
    Audit that the fixed-point bound and the pencil bound agree: max gap
    over a grid of (shift, index, side).  Exit 0 iff the max gap is at
    most ten times the fixed-point tolerance.
``export-forms``
    Assemble a model and write its ``.forms`` file (and optionally the
    2D mesh).

Configuration comes from ``key = value`` sections in an INI-style file
(``--config``), with command-line flags taking precedence.  One table,
``KEYS``, defines every experiment key: its config-file name, its flag
(``--fp-tol`` for ``fp_tol``), its parser and its help text.  A flag
takes the same syntax as the file value, so ``--window "0.5,1.5;1.5,2.5"``
gives two windows and ``--order 1,2`` two orders; repeating a list flag
extends the list.  Section names are organizational only; a key
appearing in two sections is an error.  All randomness flows from the
single ``seed`` key.  Identical configuration gives byte-identical
output: floats are printed with ``repr`` and rows are sorted before
emission.

Exit codes: 0 success, 1 contract violation or computation failure,
2 configuration/usage error, among them a window end or shift so large
that the shifted forms overflow double.
"""

import argparse
import configparser
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dirac1d, maxwell2d
from .dirac1d import assemble_1d, exact_spectrum_1d, uniform_mesh
from .enclosure import zm_enclosures, zm_enclosures_all
from .errors import (
    ConfigError,
    EigencloseError,
    InsufficientPointsError,
    NonFiniteError,
    NoSignChangeError,
)
from .fixed_point import default_fp_tol, equivalence_gap
from .forms import TrialForms, read_forms, write_forms
from .linalg import DEFAULT_TOL
from .maxwell2d import (
    assemble_2d,
    exact_spectrum_2d,
    galerkin_spectrum,
    structured_tri_mesh,
    write_mesh,
)

BUILTIN_MODELS = ("dirac1d", "maxwell2d")

#: width filter for convergence fits; below this the enclosure width is
#: dominated by arithmetic, not by the mesh
WIDTH_FLOOR = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, discretization, windows/shifts, outputs."""

    model: str = "dirac1d"
    orders: tuple = (1,)
    meshes: tuple = (16,)
    jitter: float = 0.0
    seed: int = 0
    windows: tuple = ()
    shifts: tuple = ()
    j_max: int = 2
    tol: float = DEFAULT_TOL
    fp_tol: float = None
    flag_tol: float = 0.05
    out: str = None
    mesh_out: str = None


# ---------------------------------------------------------------------------
# configuration plumbing
#
# Each parser turns one value string into a field value and raises
# ValueError on bad input; the same parser reads a config-file value and
# a flag value.


def _text(text):
    """An empty value means the field's default."""
    return text or None


def _float_list(text):
    items = tuple(float(p) for p in text.replace(";", ",").split(",") if p.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _int_list(text):
    floats = _float_list(text)
    if not all(x.is_integer() for x in floats):
        raise ValueError(f"expected integers, got {text!r}")
    return tuple(int(x) for x in floats)


def _window(text):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _windows(text):
    windows = tuple(_window(chunk) for chunk in text.split(";") if chunk.strip())
    if not windows:
        raise ValueError("empty list")
    return windows


@dataclass(frozen=True)
class Key:
    """One experiment key: config-file name ``name``, flag ``--name``
    (``_`` spelled ``-``).  A ``repeat`` key is a list: repeated flags
    extend it.  For a scalar key the last flag wins."""

    name: str
    field: str
    parse: object
    help: str
    metavar: str = None
    repeat: bool = False


KEYS = (
    Key("model", "model", _text,
        "dirac1d, maxwell2d, or a path to a .forms file"),
    Key("order", "orders", _int_list,
        "polynomial degree (repeatable for 'converge')", repeat=True),
    Key("mesh", "meshes", _int_list,
        "mesh size: elements (1D) or cells per side (2D); repeatable for "
        "'converge'", repeat=True),
    Key("jitter", "jitter", float, "relative node jitter in [0, 1)"),
    Key("seed", "seed", int, "seed for all randomness"),
    Key("window", "windows", _windows, "spectral window a,b (repeatable)",
        metavar="A,B", repeat=True),
    Key("shift", "shifts", _float_list,
        "reference shift for 'equiv' (repeatable)", repeat=True),
    Key("jmax", "j_max", int, "bound indices 1..jmax per window"),
    Key("tol", "tol", float, "the forms' numerical-zero tolerance"),
    Key("fp_tol", "fp_tol", float, "fixed-point bisection tolerance"),
    Key("flag_tol", "flag_tol", float,
        "distance beyond which a value counts as spurious"),
    Key("out", "out", _text, "write CSV/.forms here instead of stdout"),
    Key("mesh_out", "mesh_out", _text, "also export the 2D mesh (export-forms)"),
)


def load_config_file(path):
    """Flatten an INI-style config into one key -> string dict.

    Sections are organizational only; the same key in two sections is
    ambiguous and rejected.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    flat = {}
    seen_in = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            if key in flat:
                raise ConfigError(
                    f"key '{key}' given in both [{seen_in[key]}] and [{section}]"
                )
            flat[key] = value
            seen_in[key] = section
    return flat


def build_config(args):
    """Merge config-file values and command-line flags (flags win)."""
    raw = load_config_file(args.config) if args.config else {}
    unknown = set(raw) - {key.name for key in KEYS}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    fields = {}
    try:
        for key in KEYS:
            texts = getattr(args, key.name) or (
                [raw[key.name]] if key.name in raw else []
            )
            values = [key.parse(text) for text in texts]
            if values:
                fields[key.field] = sum(values, ()) if key.repeat else values[-1]
    except ValueError as exc:
        raise ConfigError(f"field '{key.name}': {exc}") from None
    cfg = ExperimentConfig(**{f: v for f, v in fields.items() if v is not None})
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.model not in BUILTIN_MODELS and not cfg.model.endswith(".forms"):
        raise ConfigError(
            f"model must be one of {BUILTIN_MODELS} or a path to a .forms "
            f"file, got {cfg.model!r}"
        )
    points = [x for w in cfg.windows for x in w] + list(cfg.shifts)
    if not all(math.isfinite(x) for x in points):
        raise ConfigError("window ends and shifts must be finite")
    for a, b in cfg.windows:
        if not a < b:
            raise ConfigError(f"window ({a:g}, {b:g}) is not well-ordered")
        if cfg.model == "maxwell2d" and a <= 0.0 <= b:
            raise ConfigError(
                f"window ({a:g}, {b:g}) contains 0; the 2D cavity kernel is "
                "infinite-dimensional there and no enclosure can exist"
            )
    if not 0.0 <= cfg.jitter < 1.0:
        raise ConfigError(f"jitter must lie in [0, 1), got {cfg.jitter:g}")
    if cfg.model == "maxwell2d" and cfg.jitter > maxwell2d.MAX_JITTER:
        raise ConfigError(
            f"jitter must lie in [0, {maxwell2d.MAX_JITTER:g}] for maxwell2d, "
            f"got {cfg.jitter:g}"
        )
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.j_max < 1:
        raise ConfigError(f"jmax must be positive, got {cfg.j_max}")
    for name, value in (("tol", cfg.tol), ("fp_tol", cfg.fp_tol)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be finite and positive, got {value:g}")
    if not (math.isfinite(cfg.flag_tol) and cfg.flag_tol >= 0.0):
        raise ConfigError(f"flag_tol must be finite and >= 0, got {cfg.flag_tol:g}")
    supported = {
        "dirac1d": dirac1d.SUPPORTED_ORDERS,
        "maxwell2d": maxwell2d.SUPPORTED_ORDERS,
    }.get(cfg.model)
    if supported is not None:
        bad = [r for r in cfg.orders if r not in supported]
        if bad:
            raise ConfigError(
                f"order(s) {bad} unsupported for {cfg.model}; choose from "
                f"{supported}"
            )
    if any(n < 2 for n in cfg.meshes):
        raise ConfigError("mesh sizes must be at least 2")


# ---------------------------------------------------------------------------
# model construction and oracles


def _build(cfg, order, mesh_n):
    """Assemble (forms, model) for one design point.

    The forms carry ``cfg.tol``.  ``model`` is None for external .forms
    input.
    """
    if cfg.model == "dirac1d":
        model = assemble_1d(uniform_mesh(mesh_n, cfg.jitter, cfg.seed), order)
        forms = model.forms
    elif cfg.model == "maxwell2d":
        model = assemble_2d(structured_tri_mesh(mesh_n, cfg.jitter, cfg.seed), order)
        forms = model.forms
    else:
        try:
            forms = read_forms(cfg.model)
        except OSError as exc:
            raise ConfigError(f"cannot read forms file: {exc}") from None
        model = None
    if cfg.tol != forms.tol:  # the same stored entries, no dense copy
        forms = TrialForms._from_pattern(
            forms.n, *forms.pattern(), *forms._values, tol=cfg.tol
        )
    if model is None:
        forms.validate()
    return forms, model


#: the largest |value| compared with an exact spectrum; maxwell2d's
#: spectrum out to it holds about 1.6e6 values
_EXACT_REACH = 1000.0


def _nearest_exact(model, intervals):
    """The exact eigenvalue of a built-in model nearest each interval
    ``(lower, upper)`` (a point x is ``(x, x)``) and its distance to it.
    Neighbouring exact eigenvalues lie less than 1 apart, so the spectrum
    is built out to 2 past the farthest end compared, and no further.
    A compared end beyond ``_EXACT_REACH`` is refused with a
    ``ConfigError``."""
    farthest = max((abs(x) for pair in intervals for x in pair), default=0.0)
    if farthest > _EXACT_REACH:
        raise ConfigError(
            f"cannot compare {farthest:g} with the exact spectrum, which is "
            f"listed only out to |value| <= {_EXACT_REACH:g}"
        )
    reach = 2.0 + farthest
    if model == "dirac1d":
        exact = exact_spectrum_1d(math.ceil(reach))
    else:
        exact = exact_spectrum_2d(reach)
    out = []
    for lower, upper in intervals:
        gaps = np.maximum.reduce([lower - exact, exact - upper, np.zeros_like(exact)])
        i = int(np.argmin(gaps))
        out.append((float(exact[i]), float(gaps[i])))
    return out


def _single_design_point(cfg, command):
    if len(cfg.orders) != 1 or len(cfg.meshes) != 1:
        raise ConfigError(
            f"'{command}' uses exactly one order and one mesh size; got "
            f"orders={list(cfg.orders)}, meshes={list(cfg.meshes)}"
        )
    return cfg.orders[0], cfg.meshes[0]


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value):
    """Shortest round-tripping decimal; '' for missing entries."""
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_output(write, path, *args):
    """Write the ``--out`` or ``--mesh-out`` file ``path`` by
    ``write(*args, path)``; an OSError, such as a path that names a
    directory or lies in no directory, is a configuration error."""
    try:
        write(*args, path)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None


def _emit_csv(header, rows, path):
    """Write sorted rows; to stdout when no path is given."""
    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    def _write_file(path):
        with open(path, "w", newline="") as fh:
            _write(fh)

    if path is None:
        _write(sys.stdout)
    else:
        _write_output(_write_file, path)


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _fixed_digits(i, d):
    sign = "-" if i < 0 else ""
    i = abs(i)
    if d == 0:
        return f"{sign}{i}"
    return f"{sign}{i // 10 ** d}.{i % 10 ** d:0{d}d}"


def compact_enclosure(lower, upper, max_digits=14):
    """Render an enclosure in compact superscript/subscript notation.

    The common decimal prefix is printed once, then the remaining digits
    of the upper bound raised and of the lower bound sunk, e.g.
    ``[2.7108, 2.7143] -> 2.71^{43}_{08}``.  Rounding is always outward
    so the printed interval still encloses the true one.  Falls back to
    a plain ``[lower, upper]`` bracket when the two bounds share no
    useful prefix.  Display only: machine output keeps full precision.
    """
    lower, upper = float(lower), float(upper)
    width = upper - lower
    if width < 0.0:
        return f"[{repr(lower)}, {repr(upper)}] (inconsistent)"
    if width == 0.0:
        return repr(lower)
    digits = min(max_digits, max(1, math.ceil(-math.log10(width)) + 1))
    scale = 10 ** digits
    lo = _fixed_digits(math.floor(lower * scale), digits)
    up = _fixed_digits(math.ceil(upper * scale), digits)
    if lo == up:
        return lo
    prefix = 0
    for a, b in zip(lo, up):
        if a != b:
            break
        prefix += 1
    # a usable prefix must cover the integer part and the decimal point
    if prefix <= max(lo.find("."), up.find(".")):
        return f"[{lo}, {up}]"
    return f"{lo[:prefix]}^{{{up[prefix:]}}}_{{{lo[prefix:]}}}"


# ---------------------------------------------------------------------------
# commands


def cmd_bounds(cfg):
    if not cfg.windows:
        raise ConfigError("'bounds' needs at least one --window a,b")
    order, mesh_n = _single_design_point(cfg, "bounds")
    forms, _ = _build(cfg, order, mesh_n)

    rows = []
    display = []
    windows = sorted(cfg.windows)
    found = zm_enclosures_all(forms, windows, cfg.j_max)
    for (a, b), enclosures in zip(windows, found):
        display.append((a, b, enclosures))
        for e in enclosures:
            rows.append((
                e.j, e.lower, e.upper, e.width, e.t_lower_from, e.t_upper_from,
                "inconsistent" if e.inconsistent else "",
            ))
    rows.sort(key=lambda r: (r[5], r[4], r[0]))
    _emit_csv(
        ("j", "lower", "upper", "width", "t_lower_from", "t_upper_from", "flags"),
        rows, cfg.out,
    )
    if cfg.out is not None:
        for a, b, enclosures in display:
            sys.stdout.write(f"window ({_fmt(a)}, {_fmt(b)})\n")
            if not enclosures:
                sys.stdout.write("  no certified spectrum\n")
            for e in enclosures:
                tag = "  INCONSISTENT" if e.inconsistent else ""
                sys.stdout.write(
                    f"  j={e.j}  {compact_enclosure(e.lower, e.upper)}"
                    f"  width={e.width:.3e}{tag}\n"
                )
    return 1 if any(r[6] for r in rows) else 0


def cmd_converge(cfg):
    if cfg.model not in BUILTIN_MODELS:
        raise ConfigError("'converge' needs a built-in model with an exact spectrum")
    if len(cfg.windows) != 1:
        raise ConfigError("'converge' needs exactly one --window a,b")
    if len(set(cfg.meshes)) < 3:
        raise InsufficientPointsError(
            f"convergence study needs at least 3 distinct mesh sizes, got "
            f"{sorted(set(cfg.meshes))}"
        )

    rows = []
    widths = {}  # (r, j) -> list of (h, width)
    for order in sorted(cfg.orders):
        for mesh_n in sorted(cfg.meshes):
            forms, model = _build(cfg, order, mesh_n)
            h = model.mesh.h
            enclosures = zm_enclosures(forms, cfg.windows[0], cfg.j_max)
            exact = _nearest_exact(cfg.model, [(e.lower, e.upper) for e in enclosures])
            for e, (true_val, _) in zip(enclosures, exact):
                rows.append((
                    h, order, e.j, e.lower, e.upper, e.width,
                    true_val, e.upper - true_val,
                ))
                widths.setdefault((order, e.j), []).append((h, e.width))

    rows.sort(key=lambda r: (r[1], r[2], -r[0]))
    summary = []
    for (order, j), points in sorted(widths.items()):
        kept = [(h, w) for h, w in points if w > WIDTH_FLOOR]
        entry = {"r": order, "j": j, "points_used": len(kept),
                 "slope": None, "intercept": None}
        if len(kept) >= 2:
            hs = np.log([h for h, _ in kept])
            ws = np.log([w for _, w in kept])
            slope, intercept = np.polyfit(hs, ws, 1)
            entry["slope"] = round(float(slope), 6)
            entry["intercept"] = round(float(intercept), 6)
        summary.append(entry)

    if cfg.out is not None:
        _emit_csv(
            ("h", "r", "j", "lower", "upper", "width", "true_value", "error_upper"),
            rows, cfg.out,
        )
    _emit_json(summary)
    return 0


def cmd_pollute(cfg):
    if cfg.model != "maxwell2d":
        raise ConfigError("'pollute' compares against the exact 2D spectrum; "
                          "use model = maxwell2d")
    if not cfg.windows:
        raise ConfigError("'pollute' needs at least one --window a,b")
    order, mesh_n = _single_design_point(cfg, "pollute")
    forms, model = _build(cfg, order, mesh_n)
    theta = galerkin_spectrum(model)

    # each row is compared by the interval in its column 6
    rows = []
    windows = sorted(cfg.windows)
    found = zm_enclosures_all(forms, windows, cfg.j_max)
    for (a, b), enclosures in zip(windows, found):
        for value in theta[(theta > a) & (theta < b)]:
            rows.append(("galerkin", "", value, "", "", "", (value, value), ""))
        for e in enclosures:
            rows.append((
                "enclosure", e.j, "", e.lower, e.upper, e.width, (e.lower, e.upper),
                "inconsistent" if e.inconsistent else "",
            ))
    found = _nearest_exact(cfg.model, [r[6] for r in rows])
    rows = [
        r[:6] + (nearest, dist, int(dist > cfg.flag_tol), r[7])
        for r, (nearest, dist) in zip(rows, found)
    ]
    flagged_enclosures = sum(r[8] for r in rows if r[0] == "enclosure")

    rows.sort(key=lambda r: (r[0], _sort_float(r[2]), _sort_float(r[3])))
    _emit_csv(
        ("kind", "j", "value", "lower", "upper", "width", "nearest_true",
         "distance", "spurious", "flags"),
        rows, cfg.out,
    )
    n_spurious = sum(r[8] for r in rows if r[0] == "galerkin")
    if cfg.out is not None:
        sys.stdout.write(
            f"{n_spurious} spurious Galerkin value(s), "
            f"{flagged_enclosures} flagged enclosure(s)\n"
        )
    return 1 if flagged_enclosures else 0


def _sort_float(value):
    return float(value) if value != "" else -math.inf


def cmd_equiv(cfg):
    if not cfg.shifts:
        raise ConfigError("'equiv' needs at least one --shift t")
    order, mesh_n = _single_design_point(cfg, "equiv")
    forms, _ = _build(cfg, order, mesh_n)

    fp_tol_used = cfg.fp_tol
    if fp_tol_used is None:
        fp_tol_used = max(default_fp_tol(forms, t) for t in cfg.shifts)

    rows = []
    gaps = []
    skipped = 0
    for t in sorted(cfg.shifts):
        for j in range(1, cfg.j_max + 1):
            for side in ("left", "right"):
                try:
                    if j > forms.n:  # beyond the trial dimension: undetectable
                        raise NoSignChangeError(f"index {j} exceeds n={forms.n}")
                    gap = equivalence_gap(forms, t, j, side, fp_tol_used)
                except NoSignChangeError:
                    skipped += 1
                    rows.append((t, j, side, "", "skipped"))
                    continue
                gaps.append(gap)
                rows.append((t, j, side, gap, "ok"))

    threshold = 10.0 * fp_tol_used
    max_gap = max(gaps) if gaps else 0.0
    ok = max_gap <= threshold
    if cfg.out is not None:
        _emit_csv(("t", "j", "side", "gap", "status"), rows, cfg.out)
    _emit_json({
        "rows": len(rows),
        "skipped": skipped,
        "max_gap": max_gap,
        "fp_tol": fp_tol_used,
        "threshold": threshold,
        "pass": bool(ok),
    })
    return 0 if ok else 1


def cmd_export_forms(cfg):
    order, mesh_n = _single_design_point(cfg, "export-forms")
    if cfg.out is None:
        raise ConfigError("'export-forms' needs --out FILE")
    forms, model = _build(cfg, order, mesh_n)
    _write_output(write_forms, cfg.out, forms)
    if cfg.mesh_out is not None:
        if cfg.model != "maxwell2d":
            raise ConfigError("--mesh-out applies to maxwell2d only")
        _write_output(write_mesh, cfg.mesh_out, model.mesh)
    return 0


COMMANDS = {
    "bounds": cmd_bounds,
    "converge": cmd_converge,
    "pollute": cmd_pollute,
    "equiv": cmd_equiv,
    "export-forms": cmd_export_forms,
}


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser():
    """The one parser of every command, built once per process: parsing
    leaves it as it was, and each ``append`` flag starts a new list."""
    parser = argparse.ArgumentParser(
        prog="eigenclose",
        description="Certified eigenvalue enclosures: experiment harness.",
    )
    parser.add_argument("command", choices=COMMANDS, help="the experiment to run")
    parser.add_argument("--config", help="INI-style key = value experiment file")
    for key in KEYS:
        parser.add_argument("--" + key.name.replace("_", "-"), action="append",
                            metavar=key.metavar, help=key.help)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, InsufficientPointsError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigencloseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
