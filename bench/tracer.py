"""External tracer for the hopfcleft package, and the arithmetic on its spans.

The tracer never edits the library. ``Tracer.install`` rebinds every function
defined in a ``hopfcleft`` module, in every ``hopfcleft`` module namespace
that holds it (modules import each other's functions by name) and in
module-level dicts such as the ``io`` builder table. ``Tracer.uninstall``
puts every original back.

* A wrapped function records one span per call: (id, name, start, end,
  parent id, hot seconds). Spans stay in memory; ``dump`` returns them.
* Hot leaf operations (``Scalar`` arithmetic and ``LinearMap.__init__``) only
  count calls and sum the time of the outermost call. That time is charged to
  the enclosing span as "hot" time so that the span's self time excludes it.
  Traced functions called inside a hot operation record no span.
* Generator functions (the exhaustive sweeps' assignment iterators) are not
  spans: their wrapper counts the items the consumer actually drew.

``self_times`` and ``layer_metrics`` turn the dumped spans of many job
processes into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import time
from collections import defaultdict

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes

PACKAGE = "hopfcleft"

# Scalar methods traced as hot leaf operations, with their metric names
SCALAR_OPS = {
    "__add__": "fields.add",
    "__sub__": "fields.sub",
    "__neg__": "fields.neg",
    "__mul__": "fields.mul",
    "__truediv__": "fields.div",
    "__pow__": "fields.pow",
    "inverse": "fields.inverse",
}
LINEARMAP_INIT = "linalg.LinearMap_init"
# functions whose returned list length counts accepted sweep candidates
SWEEPS = ("oracle.enumerate_zprime", "oracle.enumerate_cocycles")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, hot)
        self.hot_calls: dict[str, int] = defaultdict(int)
        self.hot_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [id, hot seconds]
        self._ids = itertools.count(1)
        self._hot_depth = 0
        self._undo: list[tuple] = []  # (setter, owner, key, original)

    # -- recording -------------------------------------------------------

    def record(self, name: str, start: float, end: float):
        """A span measured by the caller (the launcher's start-up phases)."""
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((next(self._ids), name, start, end, parent, 0.0))

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each call records a span; ``after(args,
        result)`` may update counters from a completed call."""
        stack, spans, ids = self._stack, self.spans, self._ids
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._hot_depth:  # inside a hot leaf operation: part of its time
                return fn(*args, **kwargs)
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((frame[0], name, start, end, parent, frame[1]))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def hot(self, name: str, fn, after=None):
        """Wrap a hot leaf operation: a call count and the summed time of the
        outermost hot call, charged to the enclosing span."""
        calls, seconds, stack = self.hot_calls, self.hot_seconds, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if tracer._hot_depth:
                result = fn(*args, **kwargs)
            else:
                tracer._hot_depth = 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    tracer._hot_depth = 0
                    seconds[name] += elapsed
                    if stack:
                        stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def items(self, name: str, fn, before=None):
        """Wrap a generator function: count the items the consumer draws."""
        counters = self.counters
        key = name + ".items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Trace every function of every imported module of the package."""
        modules = {
            name[len(PACKAGE) + 1:]: mod for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".") and mod is not None
        }
        wrapped = {}
        for short, mod in modules.items():
            for value in list(vars(mod).values()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrapped[value] = self._wrap_function(f"{short}.{value.__name__}", value)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._replace(setattr, mod, key, value, wrapped[value])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._replace(dict.__setitem__, value, k, v, wrapped[v])
        fields, linalg, oracle = (modules.get(m) for m in ("fields", "linalg", "oracle"))
        if fields is not None:
            for attr, name in SCALAR_OPS.items():
                original = fields.Scalar.__dict__[attr]
                self._replace(setattr, fields.Scalar, attr, original, self.hot(name, original))
        if linalg is not None:
            original = linalg.LinearMap.__dict__["__init__"]
            self._replace(setattr, linalg.LinearMap, "__init__", original,
                          self.hot(LINEARMAP_INIT, original, self._map_size))
        if oracle is not None:
            original = oracle.SearchSpace.__dict__["assignments"]
            self._replace(setattr, oracle.SearchSpace, "assignments", original,
                          self.items("oracle.SearchSpace.assignments", original))

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def _replace(self, setter, owner, key, original, replacement):
        self._undo.append((setter, owner, key, original))
        setter(owner, key, replacement)

    def _wrap_function(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            before = self._twist_space if name == "lifting._iterate_assignments" else None
            return self.items(name, fn, before)
        if name in SWEEPS:
            return self.span(name, fn, self._accepted)
        if name == "io.load":
            return self.span(name, fn, self._bytes("io.bytes_read"))
        if name == "io.save":
            return self.span(name, fn, self._bytes("io.bytes_written"))
        return self.span(name, fn)

    # -- counters fed by wrappers ----------------------------------------

    def _map_size(self, args, _result):
        lmap = args[0]
        c = self.counters
        c["linalg.max_map_dim"] = max(
            c["linalg.max_map_dim"], lmap.source.dim, lmap.target.dim)
        c["linalg.max_map_nnz"] = max(c["linalg.max_map_nnz"], len(lmap.entries))

    def _twist_space(self, args):
        p, n = args
        self.counters["lifting._iterate_assignments.space"] += p ** n

    def _accepted(self, _args, result):
        self.counters["oracle.accepted"] += len(result)

    def _bytes(self, key):
        """io.load(path) and io.save(df, path): the path is the last argument."""
        def after(args, _result):
            self.counters[key] += os.path.getsize(args[-1])
        return after

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "hot_calls": dict(self.hot_calls),
            "hot_seconds": dict(self.hot_seconds),
            "counters": dict(self.counters),
        }


# -- span arithmetic (runs in the benchmark process) -------------------------


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration, minus the part of its interval
    that its child spans cover, minus the hot-operation time charged to it."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _hot in spans:
        children[parent].append((start, end))
    result = {}
    for sid, _name, start, end, _parent, hot in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[sid] = max(end - start - covered - hot, 0.0)
    return result


def covered_time(spans) -> float:
    """Length of the union of the top-level spans' intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted((s[2], s[3]) for s in spans if s[4] == 0):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(traces, job_seconds: float, untraced_run_s: float, traced_run_s: float) -> dict:
    """Aggregate the dumps of every traced job of a run into named metrics:
    ``<module>.<function>.calls``/``.self_s``, ``<module>.self_s``, the
    counters, ``trace.coverage`` and ``trace.overhead_ratio``."""
    m = defaultdict(float)
    covered = 0.0
    for t in traces:
        spans = [tuple(s) for s in t["spans"]]
        own = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        covered += covered_time(spans)
        for sid, name, *_rest in spans:
            module = name.split(".", 1)[0]
            m[name + ".calls"] += 1
            m[name + ".self_s"] += own[sid]
            m[module + ".self_s"] += own[sid]
        for sid, name, _s, _e, parent, _h in spans:
            parent_name = names.get(parent, "")
            if parent_name in SWEEPS and name in ("lifting.check_zprime", "cocycle.check_cocycle"):
                m["oracle.verified"] += 1
            if name in ("cocycle.pair_coalgebra", "cocycle.triple_coalgebra"):
                m["cocycle.coalgebra_calls"] += 1
            if parent_name in ("cocycle.pair_coalgebra", "cocycle.triple_coalgebra") and name in (
                    "hopf.braided_square_coalgebra", "braided.braided_tensor_coalgebra"):
                m["cocycle.coalgebra_builds"] += 1
        for name, n in t["hot_calls"].items():
            m[name + ".calls"] += n
        for name, s in t["hot_seconds"].items():
            m[name + ".self_s"] += s
            m[name.split(".", 1)[0] + ".self_s"] += s
        for name, v in t["counters"].items():
            if name.startswith("linalg.max_"):
                m[name] = max(m[name], v)
            else:
                m[name] += v
    m["oracle.candidates"] = m["oracle.SearchSpace.assignments.items"]
    m["lifting.twist_candidates"] = m["lifting._iterate_assignments.items"]
    m["lifting.twist_candidate_ratio"] = _ratio(
        m["lifting.twist_candidates"], m["lifting._iterate_assignments.space"])
    m["oracle.accept_ratio"] = _ratio(m["oracle.accepted"], m["oracle.candidates"])
    m["cocycle.coalgebra_cache_hit_ratio"] = _ratio(
        m["cocycle.coalgebra_calls"] - m["cocycle.coalgebra_builds"], m["cocycle.coalgebra_calls"])
    m["trace.coverage"] = _ratio(covered, job_seconds)
    m["trace.overhead_ratio"] = _ratio(traced_run_s, untraced_run_s)
    return dict(m)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
