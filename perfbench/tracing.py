"""Spans around blocktri's public functions and the LAPACK calls under them.

``install`` replaces, in the current process only, every public function of
each blocktri module (only ``main`` in ``blocktri.cli``) and the numpy/scipy
LAPACK entry points with wrappers that record a span per call.  Nothing
under ``src/`` changes: the wrappers are rebound in the module namespaces,
including the names other blocktri modules imported with ``from``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("cli", "matio", "krylov", "operators", "linalg", "triangular", "commutators", "decompose")

# (module, attribute) -> span name; eig and eigvals share one name
LAPACK = {
    ("numpy.linalg", "svd"): "lapack.svd",
    ("scipy.linalg", "svdvals"): "lapack.svd",
    ("numpy.linalg", "eig"): "lapack.eig",
    ("numpy.linalg", "eigvals"): "lapack.eig",
    ("scipy.linalg", "schur"): "lapack.schur",
    ("numpy.linalg", "solve"): "lapack.solve",
}


def _svd_flops(args, kwargs, result):
    # m*n*min(m, n) from the argument shape: a computed estimate, not a count
    m, n = args[0].shape[-2:]
    return m * n * min(m, n)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _found(args, kwargs, result):
    return int(result is not None)


# span name -> function of (args, kwargs, result) giving the span's number
EXTRAS = {
    "lapack.svd": _svd_flops,
    "matio.read_matrix": _file_bytes,
    "matio.render_report": _text_bytes,
    "triangular.common_eigenvector": _found,
}


class Span:
    __slots__ = ("id", "name", "parent", "case", "start", "end", "child", "extra")

    def __init__(self, sid, name, parent, case, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.case = case
        self.start = start
        self.end = None
        self.child = 0.0
        self.extra = None


class Recorder:
    """Keeps every span in memory; ``case`` tags the spans opened next."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._open = []

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans = self.spans
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent.id if parent else None, self.case, time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "case": s.case,
                                    "start": s.start, "end": s.end}) + "\n")


def install(recorder):
    """Rebind blocktri's public functions and the LAPACK entry points to traced wrappers."""
    import blocktri

    modules = [importlib.import_module(f"blocktri.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for name in ("main",) if layer == "cli" else mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[id(fn)] = (fn, recorder.wrap(f"{layer}.{name}", fn))
    for mod in (blocktri, *modules):
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for (modname, attr), name in LAPACK.items():
        mod = importlib.import_module(modname)
        setattr(mod, attr, recorder.wrap(name, getattr(mod, attr)))


def layer_metrics(spans):
    """Per-name calls and self time, plus the derived counts, over ``spans``.

    Self time is a span's duration minus the time its child spans cover.
    """
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        calls = f"{s.name}.calls"
        self_s = f"{s.name}.self_s"
        out[calls] = out.get(calls, 0) + 1
        out[self_s] = out.get(self_s, 0.0) + (s.end - s.start - s.child)
    svd = [s for s in spans if s.name == "lapack.svd"]
    eigvec = [s for s in spans if s.name == "triangular.common_eigenvector"]
    out["lapack.svd.flops_est"] = sum(s.extra for s in svd)
    out["matio.read_matrix.bytes"] = sum(s.extra for s in spans if s.name == "matio.read_matrix")
    out["matio.report.bytes"] = sum(s.extra for s in spans if s.name == "matio.render_report")
    out["triangular.common_eigenvector.hit_ratio"] = (
        sum(s.extra for s in eigvec) / len(eigvec) if eigvec else 0.0
    )
    out["triangular.mccoy_sample.words_tried"] = sum(
        1 for s in spans if s.name == "linalg.is_nilpotent" and _under(s, "triangular.mccoy_sample", by_id)
    )
    return out


def _under(span, name, by_id):
    pid = span.parent
    while pid is not None:
        if by_id[pid].name == name:
            return True
        pid = by_id[pid].parent
    return False
