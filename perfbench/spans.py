"""Spans recorded from outside the program, around the public functions of floqlat.

The tracer patches each listed function in its defining module and in every
floqlat module that imported it by name (class methods are patched on the
class), records one span per call, and restores the originals afterwards.
Nothing under the package's source is changed.  A name a later version of
the package no longer has is skipped and reported, so the traced run keeps
working across refactors.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (span name, defining module, attribute); a dotted attribute is a class method.
TRACED = [
    ("floquet.eigvals", "floqlat.floquet", "quasienergies"),
    ("floquet.eigstates", "floqlat.floquet", "quasienergy_states"),
    ("floquet.build", "floqlat.floquet", "composed_drive_evolution"),
    ("floquet.unitarity", "floqlat.floquet", "UnitaryOperator.__post_init__"),
    ("floquet.classify", "floqlat.floquet", "classify_phase"),
    ("floquet.classify", "floqlat.floquet", "find_edge_modes"),
    ("models.build", "floqlat.models", "build_h0"),
    ("models.build", "floqlat.models", "build_h1"),
    ("models.build", "floqlat.models", "build_h1_scaled"),
    ("models.build", "floqlat.models", "build_ssh"),
    ("models.build", "floqlat.models", "build_ssh_profile"),
    ("models.build", "floqlat.models", "build_wd"),
    ("models.build", "floqlat.models", "build_wd_profile"),
    ("models.eigh", "floqlat.models", "HermitianOperator.eigenvalues"),
    ("models.eigh", "floqlat.models", "HermitianOperator.diagonalize"),
    ("doubling", "floqlat.doubling", "partition_quasienergies"),
    ("doubling", "floqlat.doubling", "sine_transform"),
    ("doubling", "floqlat.doubling", "double_poles"),
    ("doubling", "floqlat.doubling", "compare_spectra"),
    ("doubling", "floqlat.doubling", "static_spectrum_ssh"),
    ("doubling", "floqlat.doubling", "static_spectrum_wd"),
    ("walls.build", "floqlat.walls", "build_floquet_wall"),
    ("walls.build", "floqlat.walls", "build_ssh_wall"),
    ("walls.build", "floqlat.walls", "build_wd_wall"),
    ("walls.bound_state", "floqlat.walls", "numeric_bound_state"),
    ("walls.fit", "floqlat.walls", "fit_localization_length"),
    ("scaling.metric", "floqlat.scaling", "scaling_metric"),
    ("scaling.fit", "floqlat.scaling", "fit_power_law"),
    ("cli", "floqlat.cli", "main"),
    ("cli.write", "floqlat.cli", "write_output"),
]

MODULES = ("floquet", "models", "doubling", "walls", "scaling", "cli")


def _matrix_dim(args, result):
    operand = args[0]
    return getattr(operand, "matrix", operand).shape[0]


def _result_dim(args, result):
    return result.shape[0]


def _bytes_written(args, result):
    return os.path.getsize(args[0])


# Exact counts taken from a call's operands or result, outside the timed interval.
COUNTS = {
    "floquet.eigvals": _matrix_dim,
    "floquet.eigstates": _matrix_dim,
    "floquet.build": _result_dim,
    "cli.write": _bytes_written,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "count")

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.error, self.count]


class Tracer:
    """In-memory span recorder; `op` is the id of the operation being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.skipped: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        count = COUNTS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span()
            span.name, span.op, span.error, span.count = name, self.op, None, None
            span.parent = stack[-1] if stack else None
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
            finally:
                stack.pop()
            if count is not None:
                span.count = count(args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = [m for n, m in sys.modules.items() if n == "floqlat" or n.startswith("floqlat.")]
        for name, module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._set(owner, method, wrapper)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _outermost(spans, matches):
    """Spans that match and have no matching ancestor (so nested calls count once)."""
    chosen = []
    for span in spans:
        if not matches(span.name):
            continue
        parent = span.parent
        while parent is not None and not matches(spans[parent].name):
            parent = spans[parent].parent
        if parent is None:
            chosen.append(span)
    return chosen


def _busy(spans, matches) -> float:
    return sum(s.end - s.start for s in _outermost(spans, matches))


def _self(spans, name) -> float:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return sum(s.end - s.start - child_time[i] for i, s in enumerate(spans) if s.name == name)


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    def named(name):
        return lambda n: n == name

    out: dict[str, tuple[float, str]] = {}
    for module in MODULES:
        out[f"{module}.busy_s"] = (_busy(spans, lambda n, m=module: n.split(".")[0] == m), "s")
    for name in ("floquet.eigvals", "floquet.eigstates", "floquet.build", "floquet.unitarity",
                 "models.build", "models.eigh", "walls.build", "walls.fit", "scaling.fit",
                 "cli.write"):
        out[f"{name}.busy_s"] = (_busy(spans, named(name)), "s")
    for name in ("floquet.classify", "walls.bound_state", "scaling.metric", "cli"):
        out[f"{name}.self_s"] = (_self(spans, name), "s")
    for name in sorted({name for name, _, _ in TRACED}):
        out[f"{name}.calls"] = (_calls(spans, name), "count")

    classify = _outermost(spans, named("floquet.classify"))
    refused = sum(1 for s in classify if s.error == "GaplessPointError")
    out["floquet.classify.refused_frac"] = (refused / len(classify) if classify else 0.0, "1")
    out["floquet.eig.dim3_computed"] = (
        sum(s.count**3 for s in spans if s.name in ("floquet.eigvals", "floquet.eigstates")),
        "count")
    out["floquet.dense_bytes_computed"] = (
        sum(16 * s.count**2 for s in spans if s.name == "floquet.build"), "B")
    out["cli.bytes_written"] = (sum(s.count for s in spans if s.name == "cli.write"), "B")
    out["trace.spans"] = (len(spans), "count")
    return out
