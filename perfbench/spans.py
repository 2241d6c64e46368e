"""Span tracer for the benchmark's traced runs, kept outside the package.

``install()`` wraps public functions and methods of c1atlas from outside: a
function is replaced in every c1atlas module that binds it (so a caller that
did ``from .linalg import charpoly`` sees the wrapper), and a method is
replaced on its class.  Each wrapped call records a span ``(id, parent, name,
start, end)``; spans stay in memory and are written out once, when the
request ends.  Counters are bumped at the same boundaries, and a few wrappers
run a hook on the result (zero operators, repeated charpoly inputs, the
largest denominator).  Hook time is recorded as its own ``trace.hooks`` span,
so it is not charged to the layer that called the wrapped function.

``self_times`` and ``layer_metrics`` are pure functions over span records and
request summaries; the driver and the tests use them directly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter

HOOK_SPAN = "trace.hooks"

# Spans recorded so often that writing each one out is not useful; they are
# still kept in memory and still count as children in the self-time sums.
HOT_SPANS = frozenset({"chevalley.bracket", "linalg.mat_vec"})


class Recorder:
    """In-memory spans, counters and maxima of one request process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, parent id or None, name, start, end)
        self.stack = []  # (id, name) of the open spans, innermost last
        self.counters = Counter()
        self.maxima = {}
        self.charpoly_inputs = set()
        self._ids = itertools.count()

    def bump(self, name, by=1):
        self.counters[name] += by

    def note_max(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def top_name(self):
        return self.stack[-1][1] if self.stack else None

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span called name and return its result."""
        sid = next(self._ids)
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, name))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def run_hook(self, hook, args, result):
        parent = self.stack[-1][0] if self.stack else None
        sid = next(self._ids)
        start = self.clock()
        hook(self, args, result)
        self.spans.append((sid, parent, HOOK_SPAN, start, self.clock()))

    def summary(self) -> dict:
        """Per-name calls and self time, counters, maxima and the coarse spans."""
        selfs = self_times(self.spans)
        names = {}
        for sid, _, name, start, end in self.spans:
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += selfs[sid]
        coarse = [list(s) for s in self.spans if s[2] not in HOT_SPANS]
        return {
            "names": names,
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "spans": sorted(coarse, key=lambda s: s[3]),
            "elided_spans": sum(1 for s in self.spans if s[2] in HOT_SPANS),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the durations of its children.

    Spans of one request come from a single thread and children nest inside
    their parent's interval, so the part of the parent covered by its children
    is the sum of the children's durations.
    """
    covered = Counter()
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, _, start, end in spans}


def wrap(recorder, fn, span=None, count=None, hook=None):
    """A wrapper of fn that records a span, bumps a counter and runs a hook.

    A call made while a span of the same name is innermost (recursion) runs
    unwrapped and is not counted again.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is not None and recorder.top_name() == span:
            return fn(*args, **kwargs)
        if count is not None:
            recorder.bump(count)
        if span is None:
            result = fn(*args, **kwargs)
        else:
            result = recorder.call(span, fn, args, kwargs)
        if hook is not None:
            recorder.run_hook(hook, args, result)
        return result

    return wrapper


# -- hooks -----------------------------------------------------------------------

def _denominator_bits(values) -> int:
    bits = 0
    for x in values:
        d = getattr(x, "denominator", 1)
        if d != 1:
            bits = max(bits, d.bit_length())
    return bits


def _after_algebra(rec, args, _result):
    rec.bump("chevalley.dim_total", args[0].dim)


def _after_jacobi(rec, _args, result):
    rec.bump("verify.jacobi_triples", result)


def _after_operator(rec, _args, result):
    if result.is_zero:
        rec.bump("shapeops.zero_operators")


def _after_inverse(rec, _args, result):
    rec.note_max("linalg.max_denominator_bits", _denominator_bits(x for row in result for x in row))


def _after_charpoly(rec, args, result):
    matrix = tuple(tuple(row) for row in args[0])
    if matrix in rec.charpoly_inputs:
        rec.bump("linalg.charpoly_repeats")
    rec.charpoly_inputs.add(matrix)
    entries = [x for row in matrix for x in row]
    if all(x == 0 for x in entries):
        rec.bump("linalg.charpoly_zero_inputs")
    rec.note_max("linalg.charpoly_max_dim", len(matrix))
    rec.note_max("linalg.max_denominator_bits", _denominator_bits(entries + list(result)))


def install(recorder) -> None:
    """Wrap the public entry points of every layer so that they record into recorder."""
    # import_module, because the package re-exports a function named classify
    catalog, chevalley, classify, cli, linalg, nilcon, rootsys, shapeops, verify = (
        importlib.import_module(f"c1atlas.{name}")
        for name in ("catalog", "chevalley", "classify", "cli", "linalg", "nilcon", "rootsys", "shapeops", "verify")
    )

    functions = [
        (catalog.load_catalog, dict(span="catalog.load", count="catalog.load_calls")),
        (nilcon.analyze, dict(span="nilcon.analyze", count="nilcon.analyze_calls")),
        (nilcon.analyze_all, dict(span="nilcon.analyze_all")),
        (classify.classify, dict(span="classify", count="classify.calls")),
        (cli.main, dict(span="cli")),
        (chevalley.dump_structure_constants, dict(span="chevalley.dump")),
        (verify.run_verify, dict(span="verify.run")),
        (shapeops.shape_operator, dict(span="shapeops.operator", count="shapeops.operator_calls", hook=_after_operator)),
        (linalg.inverse, dict(span="linalg.inverse", hook=_after_inverse)),
        (linalg.mat_vec, dict(span="linalg.mat_vec", count="linalg.mat_vec_calls")),
        (linalg.charpoly, dict(span="linalg.charpoly", count="linalg.charpoly_calls", hook=_after_charpoly)),
    ]
    methods = [
        (rootsys.RootSystem, "__init__", dict(span="rootsys.build", count="rootsys.build_calls")),
        (rootsys.RootSystem, "grading", dict(span="rootsys.grading")),
        (rootsys.RootSystem, "inner", dict(count="rootsys.inner_calls")),
        (chevalley.ChevalleyAlgebra, "__init__", dict(span="chevalley.build", count="chevalley.build_calls", hook=_after_algebra)),
        (chevalley.ChevalleyAlgebra, "bracket", dict(span="chevalley.bracket", count="chevalley.bracket_calls")),
        (chevalley.ChevalleyAlgebra, "b_theta", dict(count="chevalley.b_theta_calls")),
        (chevalley.ChevalleyAlgebra, "check_jacobi_exhaustive", dict(hook=_after_jacobi)),
        (shapeops.OrbitSubalgebra, "__init__", dict(span="shapeops.orbit", count="shapeops.orbit_calls")),
    ]
    modules = [m for name, m in sys.modules.items() if name == "c1atlas" or name.startswith("c1atlas.")]
    for fn, opts in functions:
        wrapper = wrap(recorder, fn, **opts)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
    for cls, attr, opts in methods:
        setattr(cls, attr, wrap(recorder, getattr(cls, attr), **opts))


# -- per-layer table ---------------------------------------------------------------

# metric -> unit; the order is the order of the printed table
LAYER_METRICS = {
    "catalog.load_calls": "count",
    "catalog.load_s": "s",
    "rootsys.build_calls": "count",
    "rootsys.build_s": "s",
    "rootsys.inner_calls": "count",
    "rootsys.grading_s": "s",
    "nilcon.analyze_calls": "count",
    "nilcon.analyze_s": "s",
    "classify.calls": "count",
    "classify.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "chevalley.build_calls": "count",
    "chevalley.build_s": "s",
    "chevalley.dim_total": "count",
    "chevalley.dump_s": "s",
    "chevalley.bracket_calls": "count",
    "chevalley.bracket_s": "s",
    "chevalley.b_theta_calls": "count",
    "verify.jacobi_triples": "count",
    "verify.run_s": "s",
    "shapeops.orbit_calls": "count",
    "shapeops.orbit_s": "s",
    "shapeops.operator_calls": "count",
    "shapeops.operator_s": "s",
    "shapeops.zero_operator_ratio": "ratio",
    "linalg.inverse_s": "s",
    "linalg.mat_vec_calls": "count",
    "linalg.mat_vec_s": "s",
    "linalg.charpoly_calls": "count",
    "linalg.charpoly_s": "s",
    "linalg.charpoly_repeat_ratio": "ratio",
    "linalg.charpoly_zero_inputs": "count",
    "linalg.charpoly_max_dim": "rows",
    "linalg.max_denominator_bits": "bits",
    "linalg.charpoly_self_share": "ratio",
    "trace.overhead_s": "s",
}

# metric -> span names whose self time it sums
_SELF_TIME = {
    "catalog.load_s": ("catalog.load",),
    "rootsys.build_s": ("rootsys.build",),
    "rootsys.grading_s": ("rootsys.grading",),
    "nilcon.analyze_s": ("nilcon.analyze", "nilcon.analyze_all"),
    "classify.s": ("classify",),
    "cli.self_s": ("cli",),
    "chevalley.build_s": ("chevalley.build",),
    "chevalley.dump_s": ("chevalley.dump",),
    "chevalley.bracket_s": ("chevalley.bracket",),
    "verify.run_s": ("verify.run",),
    "shapeops.orbit_s": ("shapeops.orbit",),
    "shapeops.operator_s": ("shapeops.operator",),
    "linalg.inverse_s": ("linalg.inverse",),
    "linalg.mat_vec_s": ("linalg.mat_vec",),
    "linalg.charpoly_s": ("linalg.charpoly",),
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(summaries, output_bytes=0) -> dict:
    """The per-layer table of one traced batch.

    ``summaries`` are the per-request ``Recorder.summary()`` dicts of the
    batch; counters and self times are summed over them and maxima are taken
    over them.  Ratios and their bases: zero operators / operator calls,
    repeated charpoly inputs / charpoly calls, charpoly self time / all traced
    self time (hook spans excluded); a ratio with an empty base is 0.
    ``output_bytes`` is the stdout size of the batch's CLI requests, which the
    driver measures; ``trace.overhead_s`` is left at 0 for the driver to set,
    because it compares traced with untraced batches.
    """
    self_s = Counter()
    counters = Counter()
    maxima = {}
    for summary in summaries:
        for name, entry in summary["names"].items():
            self_s[name] += entry["self_s"]
        counters.update(summary["counters"])
        for name, value in summary["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)
    out = {name: 0 for name in LAYER_METRICS}
    for name in LAYER_METRICS:
        if name in counters:
            out[name] = counters[name]
    for metric, names in _SELF_TIME.items():
        out[metric] = sum(self_s[n] for n in names)
    out.update(maxima)
    out["cli.output_bytes"] = output_bytes
    out["shapeops.zero_operator_ratio"] = _ratio(
        counters["shapeops.zero_operators"], counters["shapeops.operator_calls"]
    )
    out["linalg.charpoly_repeat_ratio"] = _ratio(
        counters["linalg.charpoly_repeats"], counters["linalg.charpoly_calls"]
    )
    traced_self = sum(v for name, v in self_s.items() if name != HOOK_SPAN)
    out["linalg.charpoly_self_share"] = _ratio(self_s["linalg.charpoly"], traced_self)
    return out
