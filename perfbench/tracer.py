"""Spans around the public functions of weakdep's layer modules, recorded
from outside the library.

Modules import layer functions by name (``processes`` binds
``raw_words``, ``rates`` binds ``empirical_delta``, ...), so patching only
the defining module would miss every call made through such a binding.
``Tracer.install`` therefore replaces every module-level binding of each
wrapped function in every loaded ``weakdep`` module, and fails if a
module-level table still holds an unwrapped one.

Each call records a span (function, parent span, start, end) in memory; a
function's self time is its spans' durations minus the durations of their
direct child spans, so the time ``law_values`` spends in ``raw_words`` is
counted once, under ``raw_words``. A few work counts are taken at the same
boundaries. Tracing is single-threaded: the workloads run with
``threads = 1``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import sys
import time
import types

import numpy as np

LAYERS = ("innovations", "processes", "variance", "bedistance", "dependence",
          "rates", "cli")


def _key(x):
    """A hashable identity of an argument: dataclasses by their fields,
    arrays by their bytes."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.shape, x.dtype.str,
                hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            (f.name, _key(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(_key(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _key(v)) for k, v in x.items()))
    return repr(x)


class Tracer:
    def __init__(self):
        self.functions: list[tuple[str, str]] = []   # (layer, name)
        self.spans: list = []                        # (fid, parent, t0, t1)
        self._stack: list[int] = []
        self.words = 0
        self.rep_steps = 0
        self.variance_keys: list = []

    def _count(self, layer, name, fn):
        """The work count taken after each call of ``fn``, if any."""
        if (layer, name) == ("innovations", "raw_words"):
            def count(args, kwargs, result):
                self.words += np.size(result)
            return count
        sig = inspect.signature(fn)
        if (layer, name) == ("processes", "partial_sums"):
            def count(args, kwargs, result):
                a = sig.bind(*args, **kwargs).arguments
                self.rep_steps += np.size(a["replications"]) * int(a["n"])
            return count
        if layer == "variance":
            def count(args, kwargs, result):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                self.variance_keys.append(
                    (name, _key(tuple(b.arguments.items()))))
            return count
        return None

    def _wrap(self, layer, name, fn):
        fid = len(self.functions)
        self.functions.append((layer, name))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = self._count(layer, name, fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, t0, t1)
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> int:
        """Wrap every public function of each layer module and rebind it at
        every module-level binding site; returns the bindings replaced."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "weakdep" or name.startswith("weakdep.")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"weakdep.{layer}"]
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType)
                        and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        replaced = 0
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(mod, name, wrapped[id(value)][1])
                    replaced += 1
        # a wrapped function held in a module-level table would bypass
        # its span; fail instead of under-counting
        for mod in modules.values():
            for name, value in vars(mod).items():
                if isinstance(value, dict):
                    value = list(value.values())
                if isinstance(value, (list, tuple)) and any(
                        id(v) in wrapped and wrapped[id(v)][0] is v
                        for v in value):
                    raise RuntimeError(
                        f"{mod.__name__}.{name} holds an untraced layer "
                        "function")
        return replaced

    def summary(self) -> dict:
        """Per function: calls, total and self time; plus the work counts."""
        nf = len(self.functions)
        calls = [0] * nf
        total = [0] * nf
        child = [0] * len(self.spans)
        for fid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = [0] * nf
        for i, (fid, parent, t0, t1) in enumerate(self.spans):
            calls[fid] += 1
            total[fid] += t1 - t0
            self_ns[fid] += t1 - t0 - child[i]
        functions = {
            f"{layer}.{name}": {"calls": calls[i], "total_s": total[i] * 1e-9,
                                "self_s": self_ns[i] * 1e-9}
            for i, (layer, name) in enumerate(self.functions) if calls[i]}
        return {
            "functions": functions,
            "spans": len(self.spans),
            "words": int(self.words),
            "rep_steps": int(self.rep_steps),
            "variance_calls": len(self.variance_keys),
            "variance_distinct": len(set(self.variance_keys)),
        }
