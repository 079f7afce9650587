"""Reference evaluator with exact Lineage provenance.

The paper's formal foundation (Sec. 3.2) is the Lineage model: the
provenance of a result tuple is the set of input tuples used to derive
it, and the union of all result lineages is a *sufficient* input.

This module evaluates the IR over pandas DataFrames while tracking the
exact lineage of every (intermediate) tuple. It is deliberately slow
and simple — it exists as ground truth:

* ``provenance(q, db)`` — the paper's P(Q, D), as {relation: row ids};
* ``accurate_sketch(q, db, partitions)`` — the paper's accurate sketch
  R(D, F, Q) (Def. 3), to compare against Spark-side capture;
* re-evaluating Q over the sketch instance D_P checks sketch *safety*
  empirically (Def. 4), which backs the property tests for Sec. 5.

``minmax_witness`` mirrors capture rule r3's min/max branch: the
lineage of a min/max aggregate is only the tuples attaining the
extremum (all ties — the rule joins back on ``f(a) <=> a``, so a group
whose values are all NULL keeps all its tuples), which is a sufficient
subset of the full-group lineage.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np
import pandas as pd

from repro.algebra.ops import (
    Aggregate,
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

PROV = "__prov__"


def _empty_prov() -> frozenset:
    return frozenset()


def _witness_spec(q: Aggregate):
    """The single min/max AggSpec if rule r3's witness branch applies."""
    if len(q.aggs) == 1 and q.aggs[0].func in ("min", "max"):
        return q.aggs[0]
    return None


def evaluate(
    q: Op, db: Mapping[str, pd.DataFrame], *, minmax_witness: bool = False
) -> pd.DataFrame:
    """Evaluate ``q`` over ``db``; result carries a ``__prov__`` column
    of frozensets of (relation, row_index) pairs."""
    if isinstance(q, TableAccess):
        df = db[q.name][list(q.table_schema)].reset_index(drop=True).copy()
        df[PROV] = [frozenset({(q.name, i)}) for i in range(len(df))]
        return df
    if isinstance(q, Select):
        df = evaluate(q.child, db, minmax_witness=minmax_witness)
        if len(df) == 0:
            return df
        mask = q.cond.eval_pandas(df)
        return df[mask.fillna(False).astype(bool)].reset_index(drop=True)
    if isinstance(q, Project):
        df = evaluate(q.child, db, minmax_witness=minmax_witness)
        out = pd.DataFrame(index=df.index)
        for e, a in q.items:
            out[a] = e.eval_pandas(df)
        out[PROV] = df[PROV]
        return out.reset_index(drop=True)
    if isinstance(q, Aggregate):
        return _eval_aggregate(q, db, minmax_witness)
    if isinstance(q, Join):
        return _eval_join(q, db, minmax_witness)
    if isinstance(q, CrossProduct):
        l = evaluate(q.left, db, minmax_witness=minmax_witness)
        r = evaluate(q.right, db, minmax_witness=minmax_witness)
        l = l.rename(columns={PROV: "__provl__"})
        out = l.merge(r, how="cross")
        out[PROV] = [
            a | b for a, b in zip(out["__provl__"], out[PROV], strict=True)
        ]
        return out.drop(columns=["__provl__"]).reset_index(drop=True)
    if isinstance(q, Union):
        l = evaluate(q.left, db, minmax_witness=minmax_witness)
        r = evaluate(q.right, db, minmax_witness=minmax_witness)
        r = r.set_axis(list(l.columns), axis=1)
        return pd.concat([l, r], ignore_index=True)
    if isinstance(q, Distinct):
        df = evaluate(q.child, db, minmax_witness=minmax_witness)
        cols = list(q.schema())
        if len(df) == 0:
            return df
        rows = []
        for key, grp in df.groupby(cols, dropna=False, sort=False):
            prov = frozenset().union(*grp[PROV])
            rec = dict(zip(cols, key if isinstance(key, tuple) else (key,)))
            rec[PROV] = prov
            rows.append(rec)
        return pd.DataFrame(rows, columns=cols + [PROV])
    if isinstance(q, TopK):
        df = evaluate(q.child, db, minmax_witness=minmax_witness)
        # Spark's NULL order per key: first when ascending, last when
        # descending; a not-null flag sorted in the key's direction
        # puts it there
        flags = {f"__nn{i}__": df[c].notna() for i, (c, _) in enumerate(q.order)}
        by = [x for f, (c, _) in zip(flags, q.order) for x in (f, c)]
        asc = [a for _, a in q.order for _ in (0, 1)]
        return (
            df.assign(**flags)
            .sort_values(by, ascending=asc, kind="stable")
            .head(q.k)
            .drop(columns=list(flags))
            .reset_index(drop=True)
        )
    raise TypeError(f"cannot evaluate {type(q).__name__}")


def _eval_aggregate(q: Aggregate, db, minmax_witness: bool) -> pd.DataFrame:
    df = evaluate(q.child, db, minmax_witness=minmax_witness)
    witness = _witness_spec(q) if minmax_witness else None

    def agg_group(grp: pd.DataFrame) -> dict:
        rec: dict = {}
        for s in q.aggs:
            if s.func == "count":
                rec[s.alias] = (
                    len(grp) if s.attr is None else int(grp[s.attr].notna().sum())
                )
            elif s.func == "sketch":
                vals: set[int] = set()
                for v in grp[s.attr]:
                    if isinstance(v, (list, tuple, np.ndarray, set, frozenset)):
                        vals.update(int(x) for x in v)
                    else:
                        vals.add(int(v))
                rec[s.alias] = sorted(vals)
            elif len(grp) == 0:
                rec[s.alias] = None
            else:
                col = grp[s.attr]
                rec[s.alias] = {
                    # SQL: the sum of no non-NULL value is NULL, not 0
                    "sum": lambda: col.sum(min_count=1),
                    "avg": col.mean,
                    # over the non-NULL values: pandas' skipna misses a
                    # NaN among strings
                    "min": lambda: col.dropna().min(),
                    "max": lambda: col.dropna().max(),
                }[s.func]()
        if witness is not None and len(grp) > 0:
            ext = grp[witness.attr].min() if witness.func == "min" else grp[
                witness.attr
            ].max()
            # null-safe, like r3's join: an all-NULL group's witnesses
            # are all its tuples
            vals = grp[witness.attr]
            contributors = grp[(vals == ext) | (vals.isna() & pd.isna(ext))]
        else:
            contributors = grp
        rec[PROV] = (
            frozenset().union(*contributors[PROV])
            if len(contributors)
            else _empty_prov()
        )
        return rec

    out_cols = list(q.schema()) + [PROV]
    if not q.group_by:
        rec = agg_group(df)
        return pd.DataFrame([rec], columns=out_cols)
    if len(df) == 0:
        return pd.DataFrame(columns=out_cols)
    rows = []
    for key, grp in df.groupby(list(q.group_by), dropna=False, sort=False):
        key = key if isinstance(key, tuple) else (key,)
        rec = dict(zip(q.group_by, key))
        rec.update(agg_group(grp))
        rows.append(rec)
    return pd.DataFrame(rows, columns=out_cols)


def _eval_join(q: Join, db, minmax_witness: bool) -> pd.DataFrame:
    l = evaluate(q.left, db, minmax_witness=minmax_witness)
    r = evaluate(q.right, db, minmax_witness=minmax_witness)
    pairs, residual = q.split()
    l = l.rename(columns={PROV: "__provl__"})
    if pairs:
        # SQL ``=``: a NULL key matches nothing (pandas would match it
        # to NULL)
        lk, rk = [p[0] for p in pairs], [p[1] for p in pairs]
        out = l.dropna(subset=lk).merge(
            r.dropna(subset=rk), left_on=lk, right_on=rk, how="inner"
        )
    else:
        out = l.merge(r, how="cross")
    for c in residual:
        if len(out):
            out = out[c.eval_pandas(out).fillna(False).astype(bool)]
    out = out.reset_index(drop=True)
    out[PROV] = [
        a | b for a, b in zip(out["__provl__"], out[PROV], strict=True)
    ]
    return out.drop(columns=["__provl__"])


def result_frame(
    q: Op, db: Mapping[str, pd.DataFrame], **kw
) -> pd.DataFrame:
    """Evaluate and drop the lineage column — a plain query answer."""
    return evaluate(q, db, **kw).drop(columns=[PROV])


def provenance(
    q: Op, db: Mapping[str, pd.DataFrame], *, minmax_witness: bool = False
) -> dict[str, set[int]]:
    """P(Q, D): per-relation row ids sufficient for answering Q."""
    df = evaluate(q, db, minmax_witness=minmax_witness)
    out: dict[str, set[int]] = {}
    for prov in df[PROV]:
        for rel, idx in prov:
            out.setdefault(rel, set()).add(idx)
    return out


def accurate_sketch(
    q: Op,
    db: Mapping[str, pd.DataFrame],
    partitions: Mapping[str, "RangePartition"],
    *,
    minmax_witness: bool = False,
) -> dict[str, frozenset[int]]:
    """The accurate sketch of Def. 3: fragments of each partition that
    contain at least one provenance tuple."""
    prov = provenance(q, db, minmax_witness=minmax_witness)
    out: dict[str, frozenset[int]] = {}
    for rel, part in partitions.items():
        rows = prov.get(rel, set())
        if not rows:
            out[rel] = frozenset()
            continue
        vals = db[rel].reset_index(drop=True).loc[sorted(rows), part.attr]
        out[rel] = frozenset(int(f) for f in part.fragment_of_series(vals))
    return out


def sketch_instance(
    db: Mapping[str, pd.DataFrame],
    partitions: Mapping[str, "RangePartition"],
    sketches: Mapping[str, frozenset[int]],
) -> dict[str, pd.DataFrame]:
    """D_PS (Def. 3): each sketched relation restricted to its sketch's
    fragments; unsketched relations pass through unchanged."""
    out = dict(db)
    for rel, frags in sketches.items():
        part = partitions[rel]
        df = db[rel].reset_index(drop=True)
        fr = part.fragment_of_series(df[part.attr])
        out[rel] = df[fr.isin(set(frags))].reset_index(drop=True)
    return out
