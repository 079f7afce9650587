"""Using provenance sketches: the Q[P] rewrite (paper Sec. 8).

A sketch decodes to a disjunction of range predicates on the sketched
attribute (Eq. 2); ``apply_sketches`` adds a selection with that
predicate above every covered table access. Adjacent fragments are
coalesced into one range first (Sec. 8.1), so a sketch of k fragments
with r maximal runs yields only r ranges. When r exceeds
``MAX_DISJUNCTS``, the closest ranges are bridged until the budget
holds: the predicate then covers a superset of the sketch, which is
still safe (Lem. 5) and only less precise.

The predicate is a plain ``Or`` of range conditions, so Spark's
Catalyst pushes it into the scan; when the base table is Parquet
clustered on the sketched attribute, row-group min/max pruning skips
the data exactly like the paper's zone maps / BRIN indexes (see
``repro.physical``).
"""
from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.algebra.expr import And, Col, Expr, IsNull, Lit, Node, Or
from repro.algebra.ops import Op, Select, TableAccess, replace_tables
from repro.core.sketch import ProvenanceSketch

# Disjunct budget of one sketch predicate. It was chosen when each
# disjunct cost ~15-20 ms to build as a Spark Column over py4j, more than
# the extra precision saved at these scales: on the tpch-disk benchmark
# (TPC-H-lite SF 0.01, PS400, 4 cores), the Q[P] median at budgets
# 4/8/16/32/64 was 0.24/0.28/0.40/0.64/0.78 s for Q19 and
# 0.32/0.32/0.45/0.47/0.46 s for Q10, and budget 32 made the workload's
# tail latency ~12 % worse. The predicate is now text in the query's one
# SQL string: on a 4-core host an Or of 4/16/64 ranges compiles in
# 0.02/0.03/0.05 s, but a filter-and-count of a cached 100 k-row table
# by it still takes 0.17/0.17/0.67 s end to end. Sweep again before
# changing it.
MAX_DISJUNCTS = 4


def range_condition(attr: str, lo, hi) -> Optional[Expr]:
    """Condition for one merged (lo, hi] range; None = unrestricted."""
    c = Col(attr)
    if lo is None and hi is None:
        return None
    if lo is None:
        return c.le(Lit(hi))
    if hi is None:
        return c.gt(Lit(lo))
    return And(c.gt(Lit(lo)), c.le(Lit(hi)))


def coarsen_ranges(ranges, budget: int) -> list:
    """Merge the closest adjacent ranges (bridging their gaps) until at
    most ``budget`` remain. The result covers a superset of the input,
    which is still a *safe* sketch by Lem. 5 — only precision drops."""
    rs = list(ranges)
    if len(rs) <= budget:
        return rs

    def gap(a, b):
        # numeric gap if possible, else 0 (arbitrary merge order)
        lo_b, hi_a = b[0], a[1]
        try:
            return float(lo_b) - float(hi_a)
        except (TypeError, ValueError):
            return 0.0

    while len(rs) > budget:
        gaps = [gap(rs[i], rs[i + 1]) for i in range(len(rs) - 1)]
        i = int(np.argmin(gaps))
        rs[i : i + 2] = [(rs[i][0], rs[i + 1][1])]
    return rs


def sketch_predicate(sketch: ProvenanceSketch) -> Optional[Expr]:
    """The filter predicate for a sketch: an ``Or`` of its merged
    range conditions, plus ``a IS NULL`` when the last fragment is in
    the sketch, coarsened to ``MAX_DISJUNCTS`` disjuncts when there are
    more ranges than that; ``FALSE`` for an empty sketch,
    or None if the ranges cover the whole domain (no restriction —
    using it would only add per-tuple evaluation cost, paper Sec. 9.3
    MonetDB discussion)."""
    if not sketch.fragments:
        # empty sketch: provenance is empty; nothing qualifies
        return Lit(False)
    ranges = sketch.partition.merged_ranges(sketch.fragments)
    # the last fragment also holds the NULLs (fragment_of_series), so it
    # decodes to (a > lo) OR a IS NULL
    with_null = ranges[-1][1] is None
    if len(ranges) > MAX_DISJUNCTS:
        # a coarsened predicate keeps to the budget, IS NULL included
        ranges = coarsen_ranges(ranges, MAX_DISJUNCTS - with_null)
    conds = [range_condition(sketch.attr, lo, hi) for lo, hi in ranges]
    if any(c is None for c in conds):
        return None
    if with_null:
        conds.append(IsNull(Col(sketch.attr)))
    return conds[0] if len(conds) == 1 else Or(*conds)


def apply_sketches(q: Op, sketches: Mapping[str, ProvenanceSketch]) -> Op:
    """Q[P]: identity everywhere except table accesses covered by a
    sketch, which gain the decoded range filter."""
    repl: dict[str, Op] = {}
    for rel, sk in sketches.items():
        pred = sketch_predicate(sk)
        if pred is None:
            continue
        base = TableAccess(rel, _schema_of(q, rel))
        repl[rel] = Select(base, pred)
    return replace_tables(q, repl)


def _schema_of(q: Node, rel: str) -> tuple[str, ...]:
    """Find the schema the query uses for base relation ``rel``."""
    if isinstance(q, TableAccess):
        return q.table_schema if q.name == rel else ()
    return next(filter(None, (_schema_of(c, rel) for c in q.children())), ())
