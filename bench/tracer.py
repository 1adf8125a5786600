"""Spans and counts around calls into the library, recorded from outside it.

The library is not edited.  :func:`install` replaces each traced function at
the module attribute the library (or the benchmark) calls it through with a
wrapper that records a span: workload, step, name, start, end and parent.
``temporaltable.table.build`` therefore catches every ``rebuild`` and
``temporaltable.ingest.build`` every ``ingest``.  A span's self time is its
duration minus the time of the spans nested directly inside it.  Counts are
taken at the same wrappers.  Span names are ``<layer>.<function>``, with the
layer named after the module.

Untraced runs never call :func:`install` and run the library untouched.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

VERBS = ("filter", "filter_index", "select", "mutate", "join", "group_by", "index_by", "summarize")

# (module, attribute, span).  A function imported into several modules is
# wrapped at each import site the library calls it through.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "ingest", "ingest.ingest"),
    ("ingest", "read_rows", "ingest.read_rows"),
    ("ingest", "typed_columns", "ingest.typed_columns"),
    ("ingest", "build", "table.build"),
    ("cli", "table_to_csv", "ingest.table_to_csv"),
    ("cli", "render_summary", "display.render_summary"),
    ("table", "build", "table.build"),
    ("table", "infer_from_ticks", "interval.infer"),
    ("display", "key_groups", "table.key_groups"),
    ("gaps", "key_groups", "table.key_groups"),
    ("rolling", "key_groups", "table.key_groups"),
    ("gaps", "fill_gaps", "gaps.fill_gaps"),
    ("gaps", "has_gaps", "gaps.has_gaps"),
    ("rolling", "roll_by_key", "rolling.roll_by_key"),
    ("aggregates", "apply", "aggregates.apply"),
) + tuple(("verbs", v, f"verbs.{v}") for v in VERBS)


def _nrows(t) -> int:
    # Verbs return either a table or a VerbOutcome wrapping one.
    return getattr(t, "table", t).nrows


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.step = ""
        # [name, step, parent index or -1, start ns, end ns, nested ns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap_span(self, owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, self.step, parent, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[4] - rec[3]
            if after is not None:
                after(self.counts, args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def summary(self) -> dict:
        """Per span name: [calls, total ns, self ns], plus the counts."""
        per: dict[str, list[int]] = {}
        for name, _, _, start, end, nested in self.spans:
            agg = per.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - nested
        return {"spans": per, "counts": dict(self.counts)}


def install(tracer: Tracer, tt) -> None:
    """Wrap every traced entry point of the imported ``temporaltable`` package ``tt``."""
    def rows_in(counts, args, result):
        counts["ingest.rows_in"] += len(result[1])

    def rows_out(counts, args, result):
        counts["ingest.rows_out"] += args[0].nrows

    def built(counts, args, result):
        counts["table.build_rows"] += result.nrows

    def filled(counts, args, result):
        counts["gaps.rows_added"] += result.nrows - args[0].nrows

    def applied(counts, args, result):
        counts["aggregates.cells"] += len(args[1])
        if tracer.parent_name() == "rolling.roll_by_key":
            counts["rolling.windows"] += 1

    def verb(v):
        def after(counts, args, result):
            counts[f"verbs.{v}_rows_in"] += args[0].nrows
            counts[f"verbs.{v}_rows_out"] += _nrows(result)
        return after

    hooks = {
        "ingest.read_rows": rows_in,
        "ingest.table_to_csv": rows_out,
        "table.build": built,
        "gaps.fill_gaps": filled,
        "aggregates.apply": applied,
    }
    hooks.update({f"verbs.{v}": verb(v) for v in VERBS})
    # Submodules by import path: the package re-exports functions such as
    # ``ingest`` under their module's name.
    module = lambda name: importlib.import_module(f"{tt.__name__}.{name}")
    for owner, attr, name in SPANS:
        tracer.wrap_span(module(owner), attr, name, hooks.get(name))

    tracer.wrap_count(module("ingest"), "parse_timepoint", "timepoint.parse_calls")
    tracer.wrap_count(tt.timepoint.TimePoint, "render", "timepoint.render_calls")
    tracer.wrap_count(tt.adapters.IndexAdapter, "claims", "adapters.claims_calls")
    for adapter in tt.adapters.registered_adapters():
        tracer.wrap_count(type(adapter), "to_ticks", "adapters.to_ticks_calls")
        tracer.wrap_count(type(adapter), "from_ticks", "adapters.from_ticks_calls")
