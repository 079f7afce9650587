"""Self-tuning PBDS (paper Sec. 9.5) and capture-cost amortization
(Fig. 14).

* ``SketchStore`` keeps captured sketches per query template; lookup
  uses the Sec. 6 reuse test against each stored instance.
* ``SelfTuningDriver`` implements the two strategies:
  - *eager*: capture a sketch the first time no stored sketch covers
    the incoming instance;
  - *adaptive*: run without PBDS until a template has accumulated
    ``patience`` misses ("enough evidence the sketch is needed"),
    then capture.
  A stored sketch that covers more than ``SEL_THRESHOLD`` of its
  fragments (75 %, the paper's selectivity gate) is not used: ``find``
  passes over it to the next reusable entry, and the query counts as a
  miss only when none is left.
* ``amortization_table`` reproduces Fig. 14's cost model: running a
  query n times costs ``n * C_NoPS`` without PBDS and
  ``C_cap + n * C_use`` with a sketch; for each n the cheapest option
  wins, and the table reports the interval of n where each option is
  optimal.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional

from pyspark.sql import DataFrame

from repro.algebra.compile_spark import compile_op
from repro.algebra.ops import Op
from repro.core.capture import capture_sketch
from repro.core.ranges import RangePartition
from repro.core.reuse import reusable
from repro.core.safety import Stats
from repro.core.sketch import ProvenanceSketch
from repro.core.use import apply_sketches

# the paper's selectivity gate (Sec. 9.5): a sketch covering more of its
# fragments than this is not used
SEL_THRESHOLD = 0.75


def amortization_table(
    c_nops: float,
    options: Mapping[str, tuple[float, float]],
    *,
    max_scan: int = 100_000,
) -> list[tuple[str, int, Optional[int]]]:
    """Fig. 14 rows: (option, first n_runs, last n_runs or None=open).

    ``options`` maps a label (e.g. "PS4000") to (C_cap, C_use);
    "No-PS" with (0, C_NoPS) is added implicitly. Options dominated
    for every n simply never appear (the paper drops PS32/64/400).
    """
    opts = {"No-PS": (0.0, c_nops), **options}
    # asymptotic winner: smallest C_use, ties broken by smaller C_cap
    asym = min(opts, key=lambda k: (opts[k][1], opts[k][0]))
    rows: list[tuple[str, int, Optional[int]]] = []
    current: Optional[str] = None
    start = 1
    n = 1
    while n <= max_scan:
        winner = min(opts, key=lambda k: (opts[k][0] + n * opts[k][1], k))
        if winner != current:
            if current is not None:
                rows.append((current, start, n))
            current, start = winner, n
        if winner == asym:
            break
        n += 1
    rows.append((current, start, None))
    return rows


@dataclass
class StoreEntry:
    template: str
    instance: Op
    sketches: dict[str, ProvenanceSketch]
    coverage: float  # max fragment-fraction across relations


class SketchStore:
    """Captured sketches, keyed by template, searched via Sec. 6."""

    def __init__(self, stats: Optional[Stats] = None):
        self.entries: list[StoreEntry] = []
        self.stats = stats
        self.reuse_checks = 0

    def add(self, template: str, instance: Op, sketches: dict[str, ProvenanceSketch]):
        cov = max((s.selectivity() for s in sketches.values()), default=1.0)
        self.entries.append(StoreEntry(template, instance, sketches, cov))

    def find(self, template: str, instance: Op) -> Optional[StoreEntry]:
        """The first stored entry of ``template`` that passes the
        selectivity gate and the reuse test for ``instance``. An entry
        without sketches has nothing to gate (the driver stores none)."""
        for e in self.entries:
            if e.template != template or (e.sketches and e.coverage > SEL_THRESHOLD):
                continue
            self.reuse_checks += 1
            if reusable(instance, e.instance, self.stats).reusable:
                return e
        return None


@dataclass
class QueryEvent:
    idx: int
    template: str
    action: str  # "plain" | "capture" | "use"
    seconds: float
    nops_seconds: float  # what the same query cost without PBDS


class SelfTuningDriver:
    """Streams template instances through a PBDS strategy, timing each.

    ``safe_attrs``: template -> {relation: sketch attribute} — the
    output of the Sec. 5 safety check for that template (computed once
    per template, as in the paper).
    ``partitions``: (relation, attr) -> RangePartition.
    """

    def __init__(
        self,
        tables: Mapping[str, DataFrame],
        safe_attrs: Mapping[str, Mapping[str, str]],
        partitions: Mapping[tuple[str, str], RangePartition],
        *,
        stats: Optional[Stats] = None,
        strategy: str = "adaptive",
        patience: int = 2,
    ):
        if strategy not in ("eager", "adaptive", "nops"):
            raise ValueError(strategy)
        self.tables = dict(tables)
        self.safe_attrs = safe_attrs
        self.partitions = partitions
        self.store = SketchStore(stats)
        self.strategy = strategy
        self.patience = patience if strategy == "adaptive" else 0
        self.misses: dict[str, int] = {}
        self.events: list[QueryEvent] = []

    def _run_plain(self, q: Op) -> tuple[float, int]:
        t0 = time.perf_counter()
        n = len(compile_op(q, self.tables).collect())
        return time.perf_counter() - t0, n

    def run(self, template: str, instance: Op) -> QueryEvent:
        idx = len(self.events)
        nops_s, _ = self._run_plain(instance)
        if self.strategy == "nops" or not self.safe_attrs.get(template):
            ev = QueryEvent(idx, template, "plain", nops_s, nops_s)
            self.events.append(ev)
            return ev
        entry = self.store.find(template, instance)
        if entry is not None:
            t0 = time.perf_counter()
            compile_op(apply_sketches(instance, entry.sketches), self.tables).collect()
            ev = QueryEvent(idx, template, "use", time.perf_counter() - t0, nops_s)
            self.events.append(ev)
            return ev
        self.misses[template] = self.misses.get(template, 0) + 1
        if self.misses[template] <= self.patience:
            ev = QueryEvent(idx, template, "plain", nops_s, nops_s)
            self.events.append(ev)
            return ev
        # capture, then answer using the fresh sketch
        parts = {
            rel: self.partitions[(rel, attr)]
            for rel, attr in self.safe_attrs[template].items()
        }
        t0 = time.perf_counter()
        sketches = capture_sketch(instance, self.tables, parts)
        self.store.add(template, instance, sketches)
        compile_op(apply_sketches(instance, sketches), self.tables).collect()
        ev = QueryEvent(idx, template, "capture", time.perf_counter() - t0, nops_s)
        self.events.append(ev)
        return ev

    def cumulative(self) -> list[tuple[float, float]]:
        """(pbds_cumsum, nops_cumsum) after each query — Fig. 13's
        cumulative-runtime curves."""
        out = []
        p = n = 0.0
        for e in self.events:
            p += e.seconds
            n += e.nops_seconds
            out.append((p, n))
        return out
