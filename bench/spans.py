"""Span tracing from outside the program.

`Instrumented` wraps the public functions of each pseudoherm module and
rebinds every reference to them: module globals (modules import helpers by
name, e.g. `from .linalg import spectral_norm`), the package namespace, and
module-level dispatch tables such as the CLI's handler map. Each call then
records a span (name, start, end, parent) in memory. numpy's SVD is hooked
as well, so that every numpy-level factorization is counted; one reached
from a wrapped `pseudoherm.linalg` function outside any linalg span means a
binding escaped the wrapping, and the traced run fails instead of reporting
numbers that miss it. An SVD from a private linalg helper called from
another module is counted but not flagged: no binding of a wrapped function
escaped there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import numpy.linalg._linalg as np_linalg_impl

PACKAGE = "pseudoherm"
LAYERS = ("linalg", "spectral", "metric", "intertwine", "susy", "twolevel", "report", "cli")
ROOT = "bench.op"
CLI_PUBLIC = ("main", "dispatch", "emit_report")
# Public classmethods and the span name each is recorded under.
CLASSMETHODS = {
    ("metric", "EtaOperator", "from_matrix"): "metric.eta_from_matrix",
    ("twolevel", "TwoLevelParams", "from_coefficients"): "twolevel.from_coefficients",
}
# Called once per matrix entry; its time stays in its caller's self time.
UNWRAPPED = {"report.complex_pair"}


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.escaped: list[str] = []
        self.linalg_codes: set = set()  # code objects of the wrapped linalg functions

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = perf_counter()

    def call(self, name: str, fn, args, kwargs):
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index)
        counter = COUNTED_RESULTS.get(name)
        if counter is not None:
            key, amount = counter(result)
            self.counts[key] += amount
        return result

    @contextmanager
    def op(self):
        """Root span around one benchmark operation."""
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    def svd(self, frame) -> None:
        """Count one numpy SVD; flag it if a wrapped linalg function ran it
        through a binding that escaped the wrapping."""
        if not self.stack:
            return  # outside an operation (the benchmark's own checks)
        self.counts["linalg.svds"] += 1
        innermost = self.spans[self.stack[-1]][0]
        if innermost.startswith("linalg."):
            return
        while frame is not None and frame.f_globals.get("__name__", "").startswith("numpy"):
            frame = frame.f_back
        while frame is not None and frame.f_globals.get("__name__") == f"{PACKAGE}.linalg":
            if frame.f_code in self.linalg_codes:
                self.escaped.append(f"{frame.f_code.co_name} ran inside {innermost}")
                return
            frame = frame.f_back


COUNTED_RESULTS = {
    "report.matrix_payload": lambda r: ("report.entries_emitted", r["rows"] * r["cols"]),
    "report.vector_payload": lambda r: ("report.entries_emitted", len(r)),
    "cli.emit_report": lambda r: ("cli.bytes_emitted", len(r.encode())),
}


def _public_functions(module, layer: str) -> dict:
    if layer == "cli":
        names = [n for n in vars(module) if n in CLI_PUBLIC or n.startswith("cmd_")]
    else:
        names = module.__all__
    found = {}
    for name in names:
        obj = getattr(module, name)
        span = f"{layer}.{name}"
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and span not in UNWRAPPED:
            found[span] = obj
    return found


class Instrumented:
    """Context manager that installs the wrappers and numpy hooks, and
    restores every original binding on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def _wrap(self, span: str, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(span, fn, args, kwargs)

        return wrapper

    def _set(self, container: dict, key, value) -> None:
        self._undo.append((container, key, container[key]))
        container[key] = value

    def __enter__(self) -> "Instrumented":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for span, fn in _public_functions(module, layer).items():
                wrappers[fn] = self._wrap(span, fn)
                if layer == "linalg":
                    self.tracer.linalg_codes.add(fn.__code__)
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(namespace, key, wrappers[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._set(value, k, wrappers[v])
        for (layer, cls_name, attr), span in CLASSMETHODS.items():
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, classmethod(self._wrap(span, original.__func__)))
            self._undo.append((cls, attr, original))

        svd = np_linalg_impl.svd
        tracer = self.tracer

        @functools.wraps(svd)
        def counted_svd(*args, **kwargs):
            tracer.svd(sys._getframe(1))
            return svd(*args, **kwargs)

        self._set(vars(np_linalg_impl), "svd", counted_svd)
        self._set(vars(np.linalg), "svd", counted_svd)
        return self

    def __exit__(self, *exc) -> None:
        for container, key, value in reversed(self._undo):
            if isinstance(container, type):
                setattr(container, key, value)
            else:
                container[key] = value
        self._undo.clear()


# Per-layer metrics: inclusive seconds (.s) and call counts (.calls) per span.
TIMED = (
    "linalg.spectral_norm", "linalg.cond", "linalg.eig", "linalg.kernel_basis", "linalg.rank",
    "spectral.decompose", "spectral.cluster_eigenvalues",
    "metric.canonical_eta", "metric.verify_pseudo_hermiticity", "metric.eta_from_matrix",
    "intertwine.match_spectra", "intertwine.build_L", "intertwine.canonical_factorization",
    "susy.assemble", "susy.verify_algebra", "susy.witten_index", "susy.null_kernel_check",
    "report.parse_matrix_file", "report.matrix_payload",
    "cli.emit_report",
)
CALLED = (
    "linalg.spectral_norm", "linalg.cond", "linalg.kernel_basis", "linalg.rank",
    "susy.null_kernel_check",
)
COUNTS = ("linalg.svds", "report.entries_emitted", "cli.bytes_emitted")


def layer_metrics(tracer: Tracer) -> tuple[dict, int]:
    """Per-operation means of every per-layer metric, and the operation count.

    Self time of a span is its duration minus the durations of its direct
    children; a module's self time sums that over the module's spans.
    """
    spans = tracer.spans
    children = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    total, calls, own = defaultdict(float), Counter(), defaultdict(float)
    geometric = 0
    ops = 0
    for index, (name, start, end, parent) in enumerate(spans):
        if name == ROOT:
            ops += 1
            continue
        total[name] += end - start
        calls[name] += 1
        own[name.split(".", 1)[0]] += end - start - children[index]
        if name == "linalg.kernel_basis" and spans[parent][0] == "spectral.decompose":
            geometric += 1
    ops = max(ops, 1)
    metrics = {f"{layer}.self_s": own[layer] / ops for layer in LAYERS}
    metrics.update({f"{name}.s": total[name] / ops for name in TIMED})
    metrics.update({f"{name}.calls": calls[name] / ops for name in CALLED})
    metrics.update({name: tracer.counts[name] / ops for name in COUNTS})
    metrics["spectral.geometric_checks"] = geometric / ops
    return metrics, ops
