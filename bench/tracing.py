"""Per-layer spans around the package's public functions, from outside.

`Tracer.install()` rebinds each traced function in every `lamconvex`
module that holds it (a name imported with `from .x import y` is a
separate binding), and wraps `StepLaminate.__post_init__` and
`StepLaminate.from_pieces` on the class. `Tracer.uninstall()` puts the
originals back. Each call records a span (name, start, end, parent) in
memory; self time is a span's duration minus its children's.

Counts that would cost time inside the op (the share of agreeing angles)
are computed after the op from the arguments kept with the span.
"""

import bisect
import os
import sys
import time
from fractions import Fraction

ANGLE_AGREE_TOL = 1e-12  # the package's ANGLE_MERGE_TOL


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _agree_share(t1, t2) -> tuple[int, int]:
    """(agreeing, total) intervals of the union refinement of t1 and t2."""
    union = sorted(set(t1.breakpoints) | set(t2.breakpoints))
    agree = 0
    for lo, hi in zip(union, union[1:]):
        mid = 0.5 * (lo + hi)
        a1 = t1.angles[bisect.bisect_right(t1.breakpoints, mid) - 1]
        a2 = t2.angles[bisect.bisect_right(t2.breakpoints, mid) - 1]
        agree += abs(a1 - a2) < ANGLE_AGREE_TOL
    return agree, len(union) - 1


# Counters get (args, kwargs, result) of one call and return
# {count name: amount}. They run after the span closes. A counter that
# returns a callable is deferred until the op has ended.
def _validate_counts(args, kwargs, result):
    return {"plies": len(args[0].angles)}


def _from_pieces_counts(args, kwargs, result):
    return {"pieces_in": _len(args[1]), "plies_out": result.ply_count}


def _combine_counts(args, kwargs, result):
    t1, t2 = args[0], args[1]
    return lambda: dict(zip(("agree", "intervals"), _agree_share(t1, t2)))


def _find_n_counts(args, kwargs, result):
    n_min = kwargs.get("n_min", args[3] if len(args) > 3 else 1)
    kind = "rational" if isinstance(args[0], (Fraction, int)) else "float"
    return {f"n_scanned_{kind}": result - n_min + 1}


def _load_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _save_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# layer name -> (module, attribute or Class.member, counter or None)
LAYERS = {
    "cli.main": ("lamconvex.cli", "main", None),
    "fileio.load_laminate": ("lamconvex.fileio", "load_laminate", _load_counts),
    "fileio.save_laminate": ("lamconvex.fileio", "save_laminate", _save_counts),
    "step.validate": ("lamconvex.step", "StepLaminate.__post_init__", _validate_counts),
    "step.refine": ("lamconvex.step", "refine",
                    lambda a, k, r: {"intervals_out": len(r.angles1)}),
    "step.merge_close": ("lamconvex.step", "merge_close",
                         lambda a, k, r: {"values_in": len(a[0]), "values_out": len(r)}),
    "step.from_pieces": ("lamconvex.step", "StepLaminate.from_pieces", _from_pieces_counts),
    "parameters.lamination_parameters": ("lamconvex.parameters", "lamination_parameters",
                                         lambda a, k, r: {"plies": a[0].ply_count}),
    "convexity.matched_split": ("lamconvex.convexity", "matched_split", None),
    "convexity.convex_combine": ("lamconvex.convexity", "convex_combine", _combine_counts),
    "convexity.verify_combination": ("lamconvex.convexity", "verify_combination", None),
    "interleaving.interleave": ("lamconvex.interleaving", "interleave",
                                lambda a, k, r: {"pieces_out": r.ply_count}),
    "interleaving.convergence_table": ("lamconvex.interleaving", "convergence_table", None),
    "interleaving.find_n_in_region": ("lamconvex.interleaving", "find_n_in_region",
                                      _find_n_counts),
    "interleaving.oscillation_witness": ("lamconvex.interleaving", "oscillation_witness",
                                         None),
}


class Tracer:
    """Installs span-recording wrappers; collects spans and counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}  # (layer, count name) -> total
        self._deferred = []
        self._stack = [-1]
        self._undo = []

    def _record(self, layer, original, counter):
        spans, stack, counts, deferred = self.spans, self._stack, self.counts, self._deferred
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                got = counter(args, kwargs, result)
                if callable(got):
                    deferred.append((layer, got))
                else:
                    for key, amount in got.items():
                        counts[layer, key] = counts.get((layer, key), 0) + amount
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "lamconvex" or name.startswith("lamconvex.")]
        for layer, (module_name, attr, counter) in LAYERS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._record(layer, raw.__func__, counter))
                else:
                    wrapped = self._record(layer, raw, counter)
                self._undo.append((cls, member, raw))
                setattr(cls, member, wrapped)
                continue
            original = getattr(module, attr)
            wrapper = self._record(layer, original, counter)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def finish_op(self):
        """Run the deferred counters; call once the traced op has returned."""
        for layer, fn in self._deferred:
            for key, amount in fn().items():
                self.counts[layer, key] = self.counts.get((layer, key), 0) + amount
        self._deferred.clear()

    def self_times(self) -> dict:
        """layer -> (calls, self seconds) over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

    def root_wall(self) -> float:
        """Total duration of the top-level spans."""
        return sum(end - start for name, start, end, parent in self.spans if parent < 0)
