"""Provenance-sketch capture by query instrumentation (paper Sec. 7).

``instrument(Q, partitions)`` rewrites the logical IR per Fig. 6, with
the paper's *delay* optimization (Sec. 7.3) taken to its limit: no
fragment id is computed inside the plan. An annotation carries the raw
sketch-attribute value (the *key*) and is merged only where the plan
merges tuples; ``capture_sketch`` maps the merged keys to fragment ids
once, on the driver.

* r0 INIT  — each instrumented relation gets an annotation column
  ``_ps_<rel>``, a plain copy of its sketch attribute ``a``: a ``key``
  annotation, one raw value per row.
* r1/r2/r5 — projection/selection/top-k pass annotations through. A
  ``key`` remembers the columns equal to it on every row: seeded with
  ``{a, _ps_<rel>}``, grown by ``Col = Col`` conjuncts of selection and
  join conditions, renamed through projections.
* r3       — aggregation (and duplicate removal) merges annotations. A
  ``key`` equal to a group-by column is the same on every tuple of a
  group, so it passes through the γ as that column: no BITOR below it.
  Every other annotation is merged with the ``sketch`` aggregate into
  a ``keys`` annotation, a sorted distinct array: a scalar key is
  wrapped into a singleton array first (``ToArray``), so the merge is
  always a flatten + distinct of arrays, and a NULL key survives it. A
  solitary min/max aggregate whose annotations are not all kept joins
  the aggregation result back on ``f(a) <=> a AND G <=> G`` (null-safe)
  so that only the witness tuples contribute, then regroups to one row
  per group.
* r4/r6    — join/cross/union instrument both inputs; a union turns a
  ``key`` into a singleton array and gives a branch that does not read
  the relation an empty one.
* r7 INSTR — a final global merge produces one row: per relation, the
  distinct keys of its provenance.

A ``keys`` array holds at most the distinct provenance keys that reach
that merge point, which bounds what the plan shuffles and what the
driver maps. On the benchmark queries it is small: a top-k output, the
HAVING survivors, or Q19's selected rows.

``capture_sketch`` runs the instrumented plan on Spark and maps the
keys with ``RangePartition.fragment_of_series``, the function
``interp.accurate_sketch`` uses, so NULL and NaN keys land in the same
fragment there and here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import pandas as pd
from pyspark.sql import DataFrame

from repro.algebra.compile_spark import compile_op
from repro.algebra.expr import And, Cmp, Col, Expr, split_conjuncts
from repro.algebra.ops import (
    Aggregate,
    AggSpec,
    CrossProduct,
    Distinct,
    Join,
    Op,
    Project,
    Select,
    TableAccess,
    TopK,
    Union,
)
from repro.core.ranges import RangePartition
from repro.core.sketch import ProvenanceSketch


def ann_col(relation: str) -> str:
    return f"_ps_{relation}"


@dataclass(frozen=True)
class ToArray(Expr):
    """Wrap a scalar key into a singleton array (kind key -> keys). A
    NULL key becomes ``[NULL]``, which the ``sketch`` merge keeps."""

    term: Expr

    def children(self):
        return (self.term,)

    def to_sql(self, dialect: str = "duckdb") -> str:
        t = self.term.to_sql(dialect)
        return f"array({t})" if dialect == "spark" else f"[{t}]"

    def eval_pandas(self, df):
        return self.term.eval_pandas(df).map(lambda v: [v])

    def columns(self):
        return self.term.columns()

    def bind(self, bindings):
        return ToArray(self.term.bind(bindings))


@dataclass(frozen=True)
class EmptyArray(Expr):
    """An empty annotation — a union branch that does not access the
    instrumented relation contributes no keys. Spark types it
    ``array<null>``, which the union widens to the other branch's key
    type."""

    def to_sql(self, dialect: str = "duckdb") -> str:
        return "array()" if dialect == "spark" else "[]"

    def eval_pandas(self, df):
        return pd.Series([[] for _ in range(len(df))], index=df.index)

    def columns(self):
        return frozenset()

    def bind(self, bindings):
        return self


@dataclass
class _Propped:
    """An instrumented subplan: op + the annotations it carries.

    ``op``'s schema is the uninstrumented schema followed by one column
    ``ann_col(rel)`` per key of ``anns``. ``anns`` maps a relation to
    the columns equal to its ``key`` on every row, or to ``None`` for a
    ``keys`` annotation (a sorted distinct array).
    """

    op: Op
    anns: dict[str, Optional[frozenset[str]]]


def _grow(anns, cond: Expr):
    """Add the ``Col = Col`` conjuncts of ``cond`` to the key equalities."""
    pairs, _ = split_conjuncts(cond)
    out = {}
    for rel, eq in anns.items():
        while eq is not None:
            new = {x for pair in pairs if eq & set(pair) for x in pair} - eq
            if not new:
                break
            eq = eq | new
        out[rel] = eq
    return out


def _project(p: _Propped, items) -> _Propped:
    """Π over an instrumented input: annotations pass through; a key's
    equalities follow the items that rename its columns."""
    anns = {
        rel: None
        if eq is None
        else frozenset(
            a for e, a in items if isinstance(e, Col) and e.name in eq
        )
        | {ann_col(rel)}
        for rel, eq in p.anns.items()
    }
    full = tuple(items) + tuple((Col(ann_col(r)), ann_col(r)) for r in sorted(anns))
    return _Propped(Project(p.op, full), anns)


def _kept(anns, group_by) -> dict[str, frozenset[str]]:
    """The keys equal to a group-by column, each with those columns: a
    key shared by every tuple of a group."""
    return {
        rel: eq & set(group_by)
        for rel, eq in anns.items()
        if eq is not None and eq & set(group_by)
    }


def _group(p: _Propped, group_by: tuple[str, ...], aggs) -> _Propped:
    """γ_{group_by; aggs} over an instrumented input (r3). A key equal
    to a group-by column is re-exposed as that column; every other
    annotation is merged into ``keys``."""
    kept = _kept(p.anns, group_by)
    merged = sorted(set(p.anns) - set(kept))
    all_aggs = tuple(aggs) + tuple(
        AggSpec("sketch", ann_col(r), ann_col(r)) for r in merged
    )
    # the sketch aggregate merges arrays: wrap the scalar keys first
    wrap = {ann_col(r) for r in merged if p.anns[r] is not None}
    child = p.op
    if wrap:
        child = Project(
            child,
            tuple(
                (ToArray(Col(c)) if c in wrap else Col(c), c)
                for c in child.schema()
            ),
        )
    op: Op = (
        Aggregate(child, group_by, all_aggs)
        if all_aggs
        # Spark rejects an aggregate without functions
        else Distinct(Project(p.op, tuple((Col(g), g) for g in group_by)))
    )
    anns: dict[str, Optional[frozenset[str]]] = dict.fromkeys(merged)
    if kept:
        op = Project(
            op,
            tuple((Col(c), c) for c in op.schema())
            + tuple(
                (Col(next(g for g in group_by if g in eq)), ann_col(rel))
                for rel, eq in sorted(kept.items())
            ),
        )
        anns.update({rel: eq | {ann_col(rel)} for rel, eq in kept.items()})
    return _Propped(op, anns)


def _prop(q: Op, partitions: Mapping[str, RangePartition]) -> _Propped:
    if isinstance(q, TableAccess):
        if q.name not in partitions:
            return _Propped(q, {})
        a, c = partitions[q.name].attr, ann_col(q.name)
        items = tuple((Col(n), n) for n in q.table_schema) + ((Col(a), c),)
        return _Propped(Project(q, items), {q.name: frozenset({a, c})})
    if isinstance(q, Select):
        p = _prop(q.child, partitions)
        return _Propped(Select(p.op, q.cond), _grow(p.anns, q.cond))
    if isinstance(q, Project):
        return _project(_prop(q.child, partitions), q.items)
    if isinstance(q, Aggregate):
        return _prop_aggregate(q, partitions)
    if isinstance(q, (Join, CrossProduct)):
        l = _prop(q.left, partitions)
        r = _prop(q.right, partitions)
        anns = {**l.anns, **r.anns}
        if isinstance(q, Join):
            joined: Op = Join(l.op, r.op, q.cond)
            anns = _grow(anns, q.cond)
        else:
            joined = CrossProduct(l.op, r.op)
        # normalize column order: plain schema first, annotations last
        return _project(
            _Propped(joined, anns), tuple((Col(c), c) for c in q.schema())
        )
    if isinstance(q, Union):
        return _prop_union(q, partitions)
    if isinstance(q, Distinct):
        # delta merges duplicates; their annotations are unioned, which
        # is a group-by on all attributes (not in Fig. 6's rule list —
        # the paper's queries have no delta — but required for
        # lineage-correct capture through duplicate removal).
        return _group(_prop(q.child, partitions), q.schema(), ())
    if isinstance(q, TopK):
        p = _prop(q.child, partitions)
        return _Propped(TopK(p.op, q.order, q.k), p.anns)
    raise TypeError(f"cannot instrument {type(q).__name__}")


def _prop_aggregate(
    q: Aggregate, partitions: Mapping[str, RangePartition]
) -> _Propped:
    p = _prop(q.child, partitions)
    if not p.anns:
        return _Propped(q, {})
    all_kept = len(_kept(p.anns, q.group_by)) == len(p.anns)
    if len(q.aggs) == 1 and q.aggs[0].func in ("min", "max") and not all_kept:
        # r3 witness branch: gamma(Q) |><| PROP(Q) on f(a)<=>a AND G<=>G
        # keeps only the tuples attaining the extremum; regrouping
        # merges a group's witnesses (ties) back into one row. A group
        # whose annotations are all kept needs no witness: every tuple
        # of it has the same keys.
        spec = q.aggs[0]
        w = f"{spec.alias}__w"
        renamed = Project(
            Aggregate(q.child, q.group_by, (spec,)),
            tuple((Col(g), f"{g}__w") for g in q.group_by) + ((Col(spec.alias), w),),
        )
        # null-safe: a group whose extremum is NULL (all its values are
        # NULL) keeps its tuples as witnesses, and a NULL group key
        # matches its own group
        cond = And(
            Cmp("<=>", Col(spec.attr), Col(w)),
            *(Cmp("<=>", Col(g), Col(f"{g}__w")) for g in q.group_by),
        )
        joined = _Propped(Join(p.op, renamed, cond), p.anns)
        return _group(joined, q.group_by, (AggSpec(spec.func, w, spec.alias),))
    return _group(p, q.group_by, q.aggs)


def _prop_union(q: Union, partitions: Mapping[str, RangePartition]) -> _Propped:
    l = _prop(q.left, partitions)
    r = _prop(q.right, partitions)
    rels = sorted(set(l.anns) | set(r.anns))

    # normalize both branches to: plain schema + one key array per
    # instrumented relation (missing in a branch -> empty array).
    def normalize(p: _Propped, schema_names, target_names) -> Op:
        items = [(Col(c), out) for c, out in zip(schema_names, target_names)]
        for rel in rels:
            c = Col(ann_col(rel))
            if rel not in p.anns:
                e: Expr = EmptyArray()
            else:
                e = c if p.anns[rel] is None else ToArray(c)
            items.append((e, ann_col(rel)))
        return Project(p.op, tuple(items))

    lnames = q.left.schema()
    ln = normalize(l, lnames, lnames)
    rn = normalize(r, q.right.schema(), lnames)
    return _Propped(Union(ln, rn), dict.fromkeys(rels))


def instrument(q: Op, partitions: Mapping[str, RangePartition]) -> Op:
    """INSTR(F, Q) (Fig. 6 r7): the instrumented plan whose single
    output row holds, per sketched relation, the sorted distinct keys
    of its provenance."""
    missing = set(partitions) - q.relations()
    if missing:
        raise ValueError(f"partitions for relations not in query: {missing}")
    p = _prop(q, partitions)
    if not p.anns:
        raise ValueError("no relation of the query is partitioned")
    return _group(p, (), ()).op


def capture_sketch(
    q: Op,
    tables: Mapping[str, DataFrame],
    partitions: Mapping[str, RangePartition],
) -> dict[str, ProvenanceSketch]:
    """Run INSTR(F, Q) on Spark; map each relation's provenance keys to
    fragments on the driver."""
    row = compile_op(instrument(q, partitions), tables).collect()[0]
    out: dict[str, ProvenanceSketch] = {}
    for rel, part in partitions.items():
        keys = row[ann_col(rel)] or []
        frags = part.fragment_of_series(pd.Series(keys)) if keys else ()
        out[rel] = ProvenanceSketch(part, frozenset(int(f) for f in frags))
    return out
