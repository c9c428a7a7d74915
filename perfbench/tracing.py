"""Opt-in tracing of the eigenclose layers from outside the package.

:class:`Tracer` replaces every public module-level function of the
package's layers with a wrapper that records a span (name, start, end,
parent span, op id), and the numpy/scipy decomposition entry points with
wrappers that only count calls.  Wrappers are installed on every module
attribute that binds the original function, so names imported with
``from .x import f`` are covered too, and :meth:`Tracer.uninstall` puts
every original back.  Nothing under ``src/`` knows about the tracer.

Decompositions are counted, not timed as spans, so that a layer's self
time keeps the LAPACK work it calls directly (``zm_eigen``'s two 2-norms,
for example) and loses only the time spent in other wrapped layers.
"""

import functools
import inspect
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

#: package modules that do work; ``errors`` does none
LAYERS = ("cli", "forms", "linalg", "enclosure", "fixed_point", "dirac1d", "maxwell2d")

#: name of the span that covers one whole op (``cli.main``)
ROOT = "cli.main"

#: (module, attribute) of the dense decompositions to count
DECOMPOSITIONS = (
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "cholesky"),
    ("numpy.linalg", "norm"),
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"),
    ("scipy.linalg", "svd"),
    ("scipy.linalg", "cholesky"),
    ("scipy.linalg", "ldl"),
)

_MARK = "__perfbench_original__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _is_decomposition(qualname, args, kwargs):
    """``norm`` is a decomposition only as the matrix 2-norm (an SVD)."""
    if not qualname.endswith(".norm"):
        return True
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ == 2 and getattr(args[0], "ndim", 0) == 2


#: per-function notes kept on the span, for counts the layer metrics need
NOTES = {
    "enclosure.zm_eigen": lambda args, kwargs, r: {
        "t": float(_arg(args, kwargs, 1, "t")),
        "n_tau": r.tau_minus.size + r.tau_plus.size + r.signature.n_zero,
    },
    "enclosure.zm_enclosures": lambda args, kwargs, r: {"emitted": 2 * len(r)},
    "fixed_point.optimal_shift": lambda args, kwargs, r: {"evals": r.iterations},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    note: dict = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (op, qualified name) -> decomposition calls
        self.op = None
        self._stack = []
        self._patched = []  # (owner module, attribute, original)

    # -- patching ---------------------------------------------------------

    def install(self):
        import eigenclose  # noqa: F401  (loads every layer module)

        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS[1:]:  # cli.main is the op's root span itself
            module = sys.modules[f"eigenclose.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._span_wrapper(f"{layer}.{attr}", fn)
        for module_name, attr in DECOMPOSITIONS:
            fn = getattr(sys.modules[module_name], attr)
            wrappers[id(fn)] = self._count_wrapper(f"{module_name}.{attr}", fn)

        owners = [m for n, m in sys.modules.items()
                  if n == "eigenclose" or n.startswith("eigenclose.")]
        owners += [sys.modules["numpy.linalg"], sys.modules["scipy.linalg"]]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, value))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None and _is_decomposition(name, args, kwargs):
                self.counts[self.op, name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- ops --------------------------------------------------------------

    def run_op(self, op, main, argv):
        """Call ``main(argv)`` under a root span for op ``op``."""
        self.op = op
        root = Span(ROOT, perf_counter(), 0.0, -1, op)
        self._stack = [len(self.spans)]
        self.spans.append(root)
        try:
            return main(argv)
        finally:
            root.end = perf_counter()
            self._stack = []
            self.op = None

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        import json

        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, "note": s.note}) + "\n")


def installed_wrappers():
    """``owner.attr`` names that currently bind a tracer wrapper."""
    owners = [(n, m) for n, m in list(sys.modules.items())
              if n in ("numpy.linalg", "scipy.linalg")
              or n == "eigenclose" or n.startswith("eigenclose.")]
    return [f"{n}.{attr}" for n, m in owners
            for attr, value in vars(m).items() if hasattr(value, _MARK)]


def self_times(spans):
    """Per-span self time: duration minus the durations of its children.

    Spans of one thread nest, so children never overlap and their
    durations add up to the part of the parent they cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def op_metrics(spans, counts, op):
    """Per-layer metrics of one op from its spans and decomposition counts.

    ``spans`` is the tracer's whole list (parents are list indices); only
    spans of ``op`` contribute.
    """
    selfs = self_times(spans)
    calls, busy, self_s = Counter(), Counter(), Counter()
    notes = {}
    root = None
    outside_cli = 0.0
    for i, s in enumerate(spans):
        if s.op != op:
            continue
        if s.name == ROOT:
            root = s
            continue
        calls[s.name] += 1
        self_s[s.name] += selfs[i]
        if not _nested_in_same(spans, i):
            busy[s.name] += s.duration
        if s.note:
            notes.setdefault(s.name, []).append(s.note)
        if spans[s.parent].name == ROOT:
            outside_cli += s.duration

    zm = notes.get("enclosure.zm_eigen", [])
    tau_computed = sum(n["n_tau"] for n in zm)
    emitted = sum(n["emitted"] for n in notes.get("enclosure.zm_enclosures", []))
    roots = [n["evals"] for n in notes.get("fixed_point.optimal_shift", [])]
    shifts = calls["enclosure.zm_eigen"] + calls["enclosure.local_counting"]
    decomps = sum(c for (o, _), c in counts.items() if o == op)
    decomps += calls["linalg.cholesky_spd"]

    out = {}
    for name in ("enclosure.zm_eigen", "enclosure.local_counting"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
    out["enclosure.zm_eigen.distinct_shift_ratio"] = (
        len({n["t"] for n in zm}) / len(zm) if zm else 0.0)
    out["enclosure.bounds_used_ratio"] = (
        emitted / tau_computed if tau_computed else 0.0)
    out["fixed_point.optimal_shift.calls"] = calls["fixed_point.optimal_shift"]
    out["fixed_point.optimal_shift.busy_s"] = busy["fixed_point.optimal_shift"]
    out["fixed_point.evals_per_root"] = statistics.fmean(roots) if roots else 0.0
    for name in ("linalg.sym_generalized_eig", "linalg.cholesky_spd",
                 "linalg.kernel_split", "forms.shift"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    out["linalg.dense_decomps_per_shift"] = decomps / shifts if shifts else 0.0
    for name in ("dirac1d.assemble_1d", "maxwell2d.assemble_2d",
                 "maxwell2d.galerkin_spectrum"):
        out[f"{name}.busy_s"] = busy[name]
    out["cli.self_s"] = root.duration - outside_cli
    return out


def _nested_in_same(spans, i):
    """True when span i runs inside another span of the same function."""
    name, p = spans[i].name, spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
