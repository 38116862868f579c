"""Span recorder that times calls into the mixamp modules from outside.

The recorder replaces a function by a wrapper that appends one span per call:
name, parent span, start and end. It patches every namespace in the package
that binds the function, not only its home module. That matters because
`baseline` imports `stopping_tol` by name from `solver`, and the TV inner
solver `_tv_bregman_estimate` is looked up in the `denoise` module globals by
`tv_denoise_bregman`, by the probe lambda inside it and by `baseline._prox_b`.
A module-only patch would lose those spans.

Spans stay in memory while the benchmark runs and are written out at the end.
"""

import csv
import functools
import inspect
import sys
import time

MODULES = ("linops", "denoise", "solver", "baseline", "data", "cli")

# Private helpers that are traced as well: the TV inner solve, and the
# baseline prox that is one of its three callers.
PRIVATE = ("denoise._tv_bregman_estimate", "baseline._prox_b")


def _namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "mixamp" or name.startswith("mixamp.")]


def traceable_functions():
    """Qualified names of the public functions of MODULES, plus PRIVATE."""
    names = []
    for short in MODULES:
        mod = sys.modules[f"mixamp.{short}"]
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names.append(f"{short}.{attr}")
    return sorted(names) + list(PRIVATE)


class Tracer:
    """Records spans for the functions it has installed wrappers on.

    A span is the list [name, parent_index, start_s, end_s]; parent_index is
    -1 for a call made while no other traced call was open. ``observers``
    maps a qualified name to a callable that receives each return value and
    the call's duration in seconds.
    """

    def __init__(self):
        self.spans = []
        self.observers = {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, observers = self.spans, self._stack, self.observers
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            observer = observers.get(name)
            if observer is not None:
                observer(result, span[3] - span[2])
            return result

        return traced

    def install(self, names):
        """Wrap each qualified name in every package namespace that binds it."""
        namespaces = _namespaces()
        for qualified in names:
            short, attr = qualified.split(".", 1)
            original = getattr(sys.modules[f"mixamp.{short}"], attr)
            wrapper = self._wrap(qualified, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def write(self, path):
        """Write every span as one CSV row, times in microseconds from the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "name", "start_us", "end_us"))
            for i, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow((i, parent, name, f"{(start - t0) * 1e6:.3f}",
                                 f"{(end - t0) * 1e6:.3f}"))


def summarize(spans):
    """Per-name totals: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct children.
    Returns (stats, durations) where durations[i] is the inclusive time of
    spans[i] and stats maps name -> {"calls", "total_s", "self_s"}.
    """
    durations = [end - start for _, _, start, end in spans]
    child = [0.0] * len(spans)
    for dur, (_, parent, _, _) in zip(durations, spans):
        if parent >= 0:
            child[parent] += dur
    stats = {}
    for dur, kids, (name, _, _, _) in zip(durations, child, spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - kids
    return stats, durations
