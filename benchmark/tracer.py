"""Spans around calls into freemeixner, recorded from outside the library.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in the defining module and in every ``freemeixner`` module that
imported it by name (``verify.free_pair_moment``, ``meixner.enumerate_nc_le2``,
the package namespace itself, ...).  ``uninstall`` puts the original objects
back.  Untraced runs never create a Tracer, so they call the library's own
function objects.

Spans stay in memory and are written out once, when the run ends.
Private helpers are not wrapped: the enumeration ``free_pair_moment`` does
through ``ncpart._nc_zero`` stays inside that function's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("ncpart", "cumulants", "meixner", "verify", "numerics", "cli")

# free-pair words longer than this fall outside ncpart's partition cache
NC_CACHE_LIMIT = 10

_MARK = "_bench_span"


def _cumulants_label(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "nc_le2")
    return f"meixner.cumulants.{method}"


# Span names that depend on an argument.
_LABELS = {"meixner.cumulants": _cumulants_label}


def _count_partitions(tracer, args, kwargs, result):
    tracer.counters["ncpart.partitions_returned"] += len(result)


def _count_letters(tracer, args, kwargs, result):
    word = args[2] if len(args) > 2 else kwargs["word"]
    n = len(word)
    tracer.counters["cumulants.free_pair_moment.letters"] += n
    tracer.counters["cumulants.free_pair_moment.beyond_cache"] += n > NC_CACHE_LIMIT


def _count_orders(tracer, args, kwargs, result):
    tracer.counters["verify.orders_checked"] += len(result.orders)


def _count_dropped(tracer, args, kwargs, result):
    asked = args[1] if len(args) > 1 else kwargs["n"]
    tracer.counters["numerics.gauss_rule.nodes_dropped"] += asked - len(result.nodes)


# Work counters read off a call's arguments and result.
_COUNTERS = {
    "ncpart.enumerate_nc": _count_partitions,
    "ncpart.enumerate_nc_le2": _count_partitions,
    "cumulants.free_pair_moment": _count_letters,
    "verify.verify_linear_regression": _count_orders,
    "verify.verify_quadratic_variance": _count_orders,
    "verify.verify_mixed_cumulants": _count_orders,
    "verify.verify_moment_recursion": _count_orders,
    "verify.verify_levy_martingale": _count_orders,
    "numerics.gauss_rule": _count_dropped,
}


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "freemeixner" or name.startswith("freemeixner."))
    ]


def wrapped_functions():
    """Names of package attributes that are tracer wrappers (empty when untraced)."""
    found = []
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, _MARK, None) is not None:
                found.append(f"{mod.__name__}.{name}")
    return found


class Tracer:
    """In-memory span recorder.

    A span is [id, parent id, request id, name, start, end, exception type
    name or None].  Times come from ``time.perf_counter``, one monotonic
    clock for every process on the machine, so spans recorded in child
    processes can be merged.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------
    def open(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, self.request, name, time.perf_counter(), None, None])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id, raised=None):
        span = self.spans[span_id]
        span[5] = time.perf_counter()
        span[6] = raised
        self._stack.pop()

    def adopt(self, spans, parent):
        """Merge spans recorded in a child process under ``parent``."""
        offset = len(self.spans)
        for span_id, par, _req, name, start, end, raised in spans:
            new_parent = parent if par is None else par + offset
            self.spans.append(
                [span_id + offset, new_parent, self.request, name, start, end, raised])

    def _wrap(self, qualname, fn):
        tracer = self
        label = _LABELS.get(qualname)
        count = _COUNTERS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(label(args, kwargs) if label else qualname)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, raised=type(exc).__name__)
                raise
            tracer.close(span)
            if count:
                count(tracer, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, qualname)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        modules = package_modules()
        for layer in LAYERS:
            defining = sys.modules.get(f"freemeixner.{layer}")
            if defining is None:
                continue
            for name, fn in public_functions(defining).items():
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- summaries -------------------------------------------------------
    def self_times(self):
        """Self time per span name: duration minus the child spans it covers."""
        child = Counter()
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[5] - span[4]
        out = Counter()
        for span in self.spans:
            out[span[3]] += (span[5] - span[4]) - child[span[0]]
        return out

    def calls(self):
        return Counter(span[3] for span in self.spans)

    def raised(self):
        """Spans that ended in an exception, per layer."""
        out = Counter()
        for span in self.spans:
            if span[6]:
                out[span[3].split(".")[0]] += 1
        return out

    def top_level_time(self):
        return sum(span[5] - span[4] for span in self.spans if span[1] is None)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
