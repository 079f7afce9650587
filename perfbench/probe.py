"""Spans, counters and answer capture for the PBDS benchmark.

``Tracer`` keeps spans (name, start, end, parent, request) in memory and
turns them into per-layer self times: a span's duration minus the part
its direct children cover.

``Probe`` owns the calls the benchmark makes into the layers, and the
calls it wraps inside ``SelfTuningDriver``:

* ``compile_op`` returns a DataFrame whose ``collect`` is replaced by
  one that records the rows, the wall time and which kind of query ran
  (plain Q, ``Q[P]`` or the capture query ``INSTR(Q)``). The rows are
  what the benchmark checks against plain Q after the timed window.
* With tracing on, every wrapped call is a span, planning is split from
  execution (``spark.plan`` / ``spark.exec``), and the executed plan is
  read for scan and plan counters (``plan_counters``).

Capturing rows costs a function call per query; tracing adds the plan
walk over py4j, which is why end-to-end figures come from untraced runs.
"""
from __future__ import annotations

import contextlib
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

import repro.algebra.compile_spark as compile_mod
import repro.core.capture as capture_mod
import repro.core.selftune as selftune_mod
import repro.core.use as use_mod

# Layer names of the spans, keyed by the public function they wrap.
SPAN = {
    "generate": "workloads.generate",
    "instance": "workloads.instance",
    "write": "storage.write",
    "read": "storage.read",
    "cache": "storage.cache",
    "stats": "stats",
    "partition": "ranges.partition",
    "safety": "safety.check",
    "compile": "compile",
    "plan": "spark.plan",
    "exec": "spark.exec",
    "capture": "capture",
    "instrument": "capture.instrument",
    "rewrite": "use.rewrite",
    "run": "selftune.run",
    "find": "selftune.find",
    "reuse": "reuse.check",
}

UDF_NODES = ("ArrowEvalPythonExec", "BatchEvalPythonExec")
_OR = re.compile(r"(?<![A-Za-z])Or\(")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: int


class Tracer:
    """In-memory spans; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []

    def new_request(self) -> None:
        self.request += 1

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(
        self, start: int = 0, end: Optional[int] = None, *, under: str = ""
    ) -> dict[str, float]:
        """Seconds per span name over spans[start:end], children's time
        excluded; with ``under``, only spans that have an ancestor of
        that name."""
        spans = self.spans
        end = len(spans) if end is None else end
        covered = [0.0] * (end - start)
        for s in spans[start:end]:
            if s.parent >= start:
                covered[s.parent - start] += s.end - s.start
        out: Counter = Counter()
        for i in range(start, end):
            s = spans[i]
            if under and not self._has_ancestor(i, under):
                continue
            out[s.name] += (s.end - s.start) - covered[i - start]
        return dict(out)

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def calls(self, start: int = 0, end: Optional[int] = None) -> Counter:
        return Counter(s.name for s in self.spans[start:end])

    def total(self, start: int = 0, end: Optional[int] = None) -> float:
        """Wall time covered by the root spans of spans[start:end]."""
        return sum(s.end - s.start for s in self.spans[start:end] if s.parent < start)


@dataclass
class Execution:
    """One collected query: what ran, what it returned, what it read."""

    kind: str  # "plain" | "qp" | "capture"
    op: Any
    rows: list
    seconds: float
    columns: tuple[str, ...]
    counters: dict = field(default_factory=dict)


def _metric(node, name: str) -> int:
    opt = node.metrics().get(name)
    return int(opt.get().value()) if opt.isDefined() else 0


def plan_counters(df) -> dict[str, int]:
    """Scan and plan counters of a DataFrame's executed plan (read after
    ``collect``): rows and files produced by the Parquet and in-memory
    scans, Python-UDF evaluation nodes, and OR terms in the scans'
    ``PushedFilters``. Adaptive plans are entered through their final
    plan and query stages; a reused exchange is not counted twice."""
    out = Counter(rows=0, files=0, udf_nodes=0, pushed_disjuncts=0)
    todo = [df._jdf.queryExecution().executedPlan()]
    while todo:
        node = todo.pop()
        cls = node.getClass().getSimpleName()
        if cls == "AdaptiveSparkPlanExec":
            todo.append(node.executedPlan())
            continue
        if cls.endswith("QueryStageExec"):
            todo.append(node.plan())
            continue
        if cls == "ReusedExchangeExec":
            continue
        if cls == "FileSourceScanExec":
            out["rows"] += _metric(node, "numOutputRows")
            out["files"] += _metric(node, "numFiles")
            pushed = node.metadata().get("PushedFilters")
            if pushed.isDefined():
                out["pushed_disjuncts"] += _or_terms(pushed.get())
        elif cls == "InMemoryTableScanExec":
            out["rows"] += _metric(node, "numOutputRows")
        elif cls in UDF_NODES:
            out["udf_nodes"] += 1
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return dict(out)


def _or_terms(pushed: str) -> int:
    """Disjuncts in a ``PushedFilters`` rendering such as
    ``[IsNotNull(a), Or(Or(p1,p2),p3)]``: a filter holding n binary
    ``Or`` nodes has n + 1 terms; a filter without one counts 0."""
    terms, depth, start = 0, 0, 0
    body = pushed.strip()[1:-1]
    for i, ch in enumerate(body + ","):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            n_or = len(_OR.findall(body[start:i]))
            terms += n_or + 1 if n_or else 0
            start = i + 1
    return terms


class Probe:
    """Wrapped layer entry points for one benchmark run.

    ``install`` puts the wrappers into ``repro.core.selftune`` and
    ``repro.core.capture`` (the names those modules imported), so calls
    the driver makes internally are traced and their answers captured;
    ``uninstall`` restores the originals.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.executions: list[Execution] = []
        self.counters: Counter = Counter()
        self._kinds: dict[int, tuple[str, Any]] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # --- lifecycle --------------------------------------------------
    def install(self) -> None:
        for obj, name, wrap in (
            (capture_mod, "instrument", self._traced_instrument),
            (capture_mod, "compile_op", self._traced_compile),
            (selftune_mod, "compile_op", self._traced_compile),
            (selftune_mod, "capture_sketch", self._traced_capture),
            (selftune_mod, "apply_sketches", self._traced_rewrite),
            (selftune_mod, "reusable", self._traced_reusable),
            (selftune_mod.SketchStore, "find", self._traced_find),
        ):
            orig = getattr(obj, name)
            self._saved.append((obj, name, orig))
            setattr(obj, name, wrap(orig))
        # the benchmark's own calls go through the same wrappers
        self.compile_op = self._traced_compile(compile_mod.compile_op)
        self.capture_sketch = self._traced_capture(capture_mod.capture_sketch)
        self.apply_sketches = self._traced_rewrite(use_mod.apply_sketches)

    def uninstall(self) -> None:
        while self._saved:
            obj, name, orig = self._saved.pop()
            setattr(obj, name, orig)

    def begin_request(self) -> int:
        """Start one answer; returns the index of its first execution."""
        self.tracer.new_request()
        self._kinds.clear()
        return len(self.executions)

    # --- wrappers ---------------------------------------------------
    def _traced_compile(self, real):
        def compile_op(q, tables):
            with self.tracer.span(SPAN["compile"]):
                df = real(q, tables)
            kind = self._kinds.get(id(q), ("plain", None))[0]
            self._attach(df, q, kind)
            return df

        return compile_op

    def _attach(self, df, q, kind: str) -> None:
        real_collect = df.collect
        tracer = self.tracer

        def collect():
            if tracer.enabled:
                with tracer.span(SPAN["plan"]):
                    df._jdf.queryExecution().executedPlan()
            t0 = time.perf_counter()
            with tracer.span(SPAN["exec"]):
                rows = real_collect()
            ex = Execution(kind, q, rows, time.perf_counter() - t0, tuple(df.columns))
            if tracer.enabled:
                ex.counters = plan_counters(df)
            self.executions.append(ex)
            return rows

        df.collect = collect

    def _traced_instrument(self, real):
        def instrument(q, partitions, **kw):
            with self.tracer.span(SPAN["instrument"]):
                plan = real(q, partitions, **kw)
            self._kinds[id(plan)] = ("capture", plan)
            return plan

        return instrument

    def _traced_capture(self, real):
        def capture_sketch(q, tables, partitions, **kw):
            with self.tracer.span(SPAN["capture"]):
                sketches = real(q, tables, partitions, **kw)
            if self.tracer.enabled:
                self.counters["capture.calls"] += 1
                self.counters["capture.fragments"] += sum(
                    len(s.fragments) for s in sketches.values()
                )
            return sketches

        return capture_sketch

    def _traced_rewrite(self, real):
        def apply_sketches(q, sketches, **kw):
            with self.tracer.span(SPAN["rewrite"]):
                qp = real(q, sketches, **kw)
            self._kinds[id(qp)] = ("qp", qp)
            if self.tracer.enabled:
                c = self.counters
                for s in sketches.values():
                    c["use.sketches"] += 1
                    c["use.merged_ranges"] += len(s.partition.merged_ranges(s.fragments))
                    c["use.coverage_sum"] += s.selectivity()
            return qp

        return apply_sketches

    def _traced_reusable(self, real):
        def reusable(q_new, q_old, stats=None):
            with self.tracer.span(SPAN["reuse"]):
                res = real(q_new, q_old, stats)
            if self.tracer.enabled:
                self.counters["reuse.checks"] += 1
                self.counters["reuse.hits"] += bool(res.reusable)
            return res

        return reusable

    def _traced_find(self, real):
        tracer = self.tracer

        def find(store, template, instance):
            with tracer.span(SPAN["find"]):
                return real(store, template, instance)

        return find

    # --- benchmark-side spans --------------------------------------
    def call(self, layer: str, fn, *args, **kw):
        """Run ``fn`` under the span of ``layer`` (a key of ``SPAN``)."""
        with self.tracer.span(SPAN[layer]):
            return fn(*args, **kw)

    def collect(self, q, tables) -> Execution:
        """Compile and collect ``q``; returns its execution record."""
        self.compile_op(q, tables).collect()
        return self.executions[-1]
