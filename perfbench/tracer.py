"""Outside-in span tracer for the statindep package.

Runs inside the benchmark's child process, after ``statindep.cli`` has been
imported.  Every public module-level function of each package module is
replaced by a timing wrapper in every module namespace that holds it, since
``cli``, ``independence`` and ``selection`` bind names with
``from .x import y``.  ``BoundedSequence.prefix`` is wrapped on the class.
No package file is touched.

A span's self time is its duration minus the durations of the spans nested
inside it.  Counts are computed in the wrappers from each call's own
arguments (and, for extraction, its result).  A named function that no
longer exists is reported as an absent span instead of failing the run, so
the tracer survives refactors that delete or rename functions.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("sequences", "subsequence", "density", "distribution",
          "independence", "selection", "reporting", "cli")

# CLI entry points (main and the cmd_* subcommands) are the root of a run,
# not spans inside it.  fmt_float is called once per written float; a span
# there would mostly time the tracer.
NOT_SPANNED = {"cli.main", "cli.build_parser", "reporting.fmt_float"}

# Spans and counters the per-layer metrics read; missing ones are reported.
NAMED_SPANS = ("density.kappa_density", "independence.statind_test",
               "independence.kappa_independence_test",
               "independence.equivalence_harness", "selection.detect_measurable",
               "selection.helly_extract", "sequences.prefix",
               "distribution.empirical_cdf", "distribution.continuity_grid",
               "reporting.write_json", "reporting.write_csv",
               "cli.parse_experiment_spec", "cli.resolve_kappa_family")


class Tracer:
    """Span statistics and counters for one traced run."""

    def __init__(self):
        self.stack: list[list] = []         # [name, start, nested seconds]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.top_level = 0.0
        self.counts = defaultdict(float)
        self.unavailable: set[str] = set()
        self.wrapped: set[str] = set()
        self.needed: dict[int, int] = {}    # id(sequence) -> longest prefix
        self.pairs: set[tuple] = set()      # distinct (sequence, kappa)
        self.extract_kept: list[float] = []
        self.generating = 0

    def span(self, name: str, fn, hook=None):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                self.stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
                else:
                    self.top_level += duration
            if hook is not None:
                self.count(hook, name, signature, args, kwargs, result)
            return result

        self.wrapped.add(name)
        return wrapper

    def count(self, hook, name, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs).arguments
            hook(self, bound, result)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError):
            self.unavailable.add(name)

    def generated(self, fn):
        """Counts terms produced by a sequence's raw batch evaluator."""
        @functools.wraps(fn)
        def wrapper(seq, ns):
            outermost = self.generating == 0
            self.generating += 1
            try:
                return fn(seq, ns)
            finally:
                self.generating -= 1
                if outermost:
                    self.counts["sequences.terms_generated"] += len(ns)
        return wrapper


def _kappa_density(t, a, result):
    kappa = a["kappa"]
    t.counts["density.checkpoints_traced"] += len(kappa)
    t.counts["density.indices_scanned"] += int(kappa.deepest)


def _statind(t, a, result):
    t.counts["independence.tuple_points"] += (
        len(a["battery"]) ** len(a["seqs"]) * len(a["schedule"]))


def _rectangles(t, a, result):
    t.counts["independence.corners"] += len(a["grid"]) ** len(a["seqs"])


def _harness(t, a, result):
    t.counts["subsequence.family_checkpoints"] += sum(
        len(k) for k in a["kappa_family"])


def _measurable(t, a, result):
    kappa = a["kappa"]
    t.pairs.add((id(a["seq"]), kappa.label, len(kappa), int(kappa.deepest)))


def _extract(t, a, result):
    t.extract_kept.append(len(result) / len(a["pool"]))


def _prefix(t, a, result):
    key = id(a["self"])
    t.needed[key] = max(t.needed.get(key, 0), int(a["n"]))


def _written(t, a, result):
    t.counts["reporting.bytes_written"] += os.path.getsize(a["path"])


HOOKS = {
    "density.kappa_density": _kappa_density,
    "independence.statind_test": _statind,
    "independence.kappa_independence_test": _rectangles,
    "independence.equivalence_harness": _harness,
    "selection.detect_measurable": _measurable,
    "selection.helly_extract": _extract,
    "sequences.prefix": _prefix,
    "reporting.write_json": _written,
    "reporting.write_csv": _written,
}


def install(package: str = "statindep") -> Tracer:
    """Wrap the package's public functions in place and return the tracer."""
    tracer = Tracer()
    modules = [sys.modules[name] for name in sys.modules
               if name == package or name.startswith(package + ".")]
    wrappers: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        if layer not in LAYERS:
            continue
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name not in NOT_SPANNED and not name.startswith("cli.cmd_"):
                wrappers[id(obj)] = tracer.span(name, obj, HOOKS.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])

    seq_mod = sys.modules.get(f"{package}.sequences")
    base = getattr(seq_mod, "BoundedSequence", None)
    if base is not None and inspect.isfunction(getattr(base, "prefix", None)):
        base.prefix = tracer.span("sequences.prefix", base.prefix,
                                  HOOKS["sequences.prefix"])
    generators = [cls for cls in vars(seq_mod).values()
                  if isinstance(cls, type) and issubclass(cls, base)
                  and "_eval_batch" in vars(cls)] if base is not None else []
    for cls in generators:
        cls._eval_batch = tracer.generated(cls._eval_batch)
    if not generators:
        tracer.unavailable.add("sequences.terms_generated")
    return tracer


def summary(tracer: Tracer, main_s: float) -> dict:
    """Per-layer figures of one traced run, as plain JSON data."""
    t = tracer
    counts = dict(t.counts)
    counts["sequences.terms_needed"] = float(sum(t.needed.values()))
    calls = t.calls.get("selection.detect_measurable", 0)
    counts["selection.measurability_repeat_ratio"] = (
        calls / len(t.pairs) if t.pairs else 0.0)
    counts["selection.pool_kept_frac"] = (
        sum(t.extract_kept) / len(t.extract_kept) if t.extract_kept else 0.0)
    return {
        "calls": dict(t.calls),
        "total_s": dict(t.total),
        "self_s": dict(t.self_time),
        "counts": counts,
        "main_s": main_s,
        "unaccounted_s": main_s - t.top_level,
        "absent": sorted(n for n in NAMED_SPANS if n not in t.wrapped),
        "unavailable": sorted(t.unavailable),
    }
