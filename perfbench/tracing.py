"""Spans around the module boundaries of torusmetrics, and the per-layer metrics.

The wrappers are installed from this file by rebinding names in the program's
modules; nothing under src/ knows about them.  Each span records its name,
parent, query id, start and end.  The spans of one query stay in memory until
that query returns; they are then reduced to counts and self times, outside
the query's timed interval.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import time

from torusmetrics import cli, ptorus, torus
from torusmetrics.farey import FareyNode
from torusmetrics.ptorus import TraceCache

CALLBACKS = ("ptorus.objective", "ptorus.bound", "torus.objective", "torus.bound")
TRACE_LOOKUPS = ("ptorus.TraceCache.log_trace", "ptorus.TraceCache.length", "ptorus.TraceCache.length_dlog")
TORUS_ENTRY = ("torus.teich_distance_enum", "torus.teich_norm", "torus.dual_sphere")
NAMES = (
    "cli.main",
    "ptorus.thurston_distance",
    "ptorus.thurston_norm",
    *TORUS_ENTRY,
    "supratio.maximize",
    *CALLBACKS,
    *TRACE_LOOKUPS,
    "farey.slope_parents",
    "farey.children",
    "farey.mediant_slope",
)
_ID = {name: i for i, name in enumerate(NAMES)}
_LAYER = [name.split(".", 1)[0] for name in NAMES]
_IS_LOOKUP = [name in TRACE_LOOKUPS for name in NAMES]
_IS_CALLBACK = [name in CALLBACKS for name in NAMES]


class Tracer:
    """Records spans for one process and reduces them query by query."""

    def __init__(self):
        self.spans: list[list] = []  # [name id, parent index, query id, start, end]
        self.stack = [-1]
        self.query_id = [0]
        self.count = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        # Self time of the callback's own layer inside each engine callback,
        # so trace lookups count towards the objective or bound that made them.
        self.callback_layer_s = [0.0] * len(NAMES)
        self.trace_lookups = 0
        self.cap_hits = 0
        self.certified = 0

    def wrap(self, fn, name):
        spans, stack, query_id, clock = self.spans, self.stack, self.query_id, time.perf_counter
        name_id = _ID[name]

        def traced(*args, **kwargs):
            record = [name_id, stack[-1], query_id[0], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()

        return traced

    def wrap_maximize(self, engine, layer):
        """The engine span; re-wraps the query's objective and subtree bound."""
        traced_engine = self.wrap(engine, "supratio.maximize")

        def maximize(query):
            bound = query.subtree_bound
            query = dataclasses.replace(
                query,
                objective=self.wrap(query.objective, f"{layer}.objective"),
                subtree_bound=None if bound is None else self.wrap(bound, f"{layer}.bound"),
            )
            result = traced_engine(query)
            self.certified += result.certified
            # A bounded search only fails to certify when max_depth cut cells
            # off or max_evals stopped it; an exhaustive one when max_evals did.
            if (bound is not None and not result.certified) or result.evals >= query.max_evals:
                self.cap_hits += 1
            return result

        return maximize

    def install(self):
        wrap = self.wrap
        cli.main = wrap(cli.main, "cli.main")
        for fn in ("thurston_distance", "thurston_norm"):
            setattr(ptorus, fn, wrap(getattr(ptorus, fn), f"ptorus.{fn}"))
        for name in TORUS_ENTRY:
            fn = name.split(".")[1]
            setattr(torus, fn, wrap(getattr(torus, fn), name))
        ptorus.maximize = self.wrap_maximize(ptorus.maximize, "ptorus")
        torus.maximize = self.wrap_maximize(torus.maximize, "torus")
        ptorus.slope_parents = wrap(ptorus.slope_parents, "farey.slope_parents")
        FareyNode.children = wrap(FareyNode.children, "farey.children")
        FareyNode.mediant_slope = wrap(FareyNode.mediant_slope, "farey.mediant_slope")
        for name in TRACE_LOOKUPS:
            method = name.rsplit(".", 1)[1]
            setattr(TraceCache, method, wrap(getattr(TraceCache, method), name))

    def end_query(self):
        """Reduce the finished query's spans and start the next query."""
        spans = self.spans
        n = len(spans)
        child_s = [0.0] * n
        layer_s = [0.0] * n  # self time of same-layer spans in the subtree
        count, self_s, callback_layer_s = self.count, self.self_s, self.callback_layer_s
        # Children come after their parent, so one reverse pass sees every
        # child before the parent it reports to.
        for i in range(n - 1, -1, -1):
            name_id, parent, _, start, end = spans[i]
            duration = end - start
            own = duration - child_s[i]
            count[name_id] += 1
            self_s[name_id] += own
            layer = _LAYER[name_id]
            if _IS_CALLBACK[name_id]:
                callback_layer_s[name_id] += layer_s[i] + own
            if parent >= 0:
                child_s[parent] += duration
                if _LAYER[spans[parent][0]] == layer:
                    layer_s[parent] += layer_s[i] + own
                if _IS_LOOKUP[name_id] and not _IS_LOOKUP[spans[parent][0]]:
                    self.trace_lookups += 1
        spans.clear()
        self.query_id[0] += 1

    def metrics(self, traced_wall_s, untraced_wall_s, cli_exit3, cli_exit_other):
        """Every per-layer metric, named <module>.<metric>; 0 where a layer never ran."""
        c = {name: self.count[i] for i, name in enumerate(NAMES)}
        s = {name: self.self_s[i] for i, name in enumerate(NAMES)}
        cb = {name: self.callback_layer_s[i] for i, name in enumerate(NAMES)}

        def per(total, calls, scale):
            return total * scale / calls if calls else 0.0

        evals = c["ptorus.objective"] + c["torus.objective"]
        bound_calls = c["ptorus.bound"] + c["torus.bound"]
        engine_calls = c["supratio.maximize"]
        return {
            "farey.parents_calls": (c["farey.slope_parents"], "count"),
            "farey.parents_us": (per(s["farey.slope_parents"], c["farey.slope_parents"], 1e6), "us"),
            "farey.cells": (c["farey.children"], "count"),
            "farey.cell_us": (per(s["farey.children"], c["farey.children"], 1e6), "us"),
            "farey.mediant_us": (per(s["farey.mediant_slope"], c["farey.mediant_slope"], 1e6), "us"),
            "supratio.queries": (engine_calls, "count"),
            "supratio.evals": (evals, "count"),
            "supratio.evals_per_query": (per(evals, engine_calls, 1.0), "evals/query"),
            "supratio.self_ms": (s["supratio.maximize"] * 1e3, "ms"),
            "supratio.self_us_per_eval": (per(s["supratio.maximize"], evals, 1e6), "us"),
            "supratio.bound_calls": (bound_calls, "count"),
            "supratio.open_ratio": (per(evals, bound_calls, 1.0), "ratio"),
            "supratio.cap_hits": (self.cap_hits, "count"),
            "supratio.certified_share": (per(self.certified, engine_calls, 1.0), "fraction"),
            "ptorus.objective_us": (per(cb["ptorus.objective"], c["ptorus.objective"], 1e6), "us"),
            "ptorus.bound_us": (per(cb["ptorus.bound"], c["ptorus.bound"], 1e6), "us"),
            "ptorus.trace_lookups": (self.trace_lookups, "count"),
            "ptorus.trace_steps_per_lookup": (
                per(c["farey.slope_parents"], self.trace_lookups, 1.0), "steps/lookup"),
            "torus.objective_us": (per(cb["torus.objective"], c["torus.objective"], 1e6), "us"),
            "torus.bound_us": (per(cb["torus.bound"], c["torus.bound"], 1e6), "us"),
            # One dual_sphere call per flat-torus query: the torus entry points'
            # own time (closed forms and form set-up) per query.
            "torus.closed_form_us": (
                per(sum(s[name] for name in TORUS_ENTRY), c["torus.dual_sphere"], 1e6), "us"),
            "cli.calls": (c["cli.main"], "count"),
            "cli.self_ms": (s["cli.main"] * 1e3, "ms"),
            "cli.exit3": (cli_exit3, "count"),
            "cli.exit_other": (cli_exit_other, "count"),
            "trace.overhead_share": (traced_wall_s / untraced_wall_s - 1.0, "fraction"),
        }
