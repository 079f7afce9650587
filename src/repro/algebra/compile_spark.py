"""IR -> Spark DataFrame.

``compile_op(q, tables)`` lowers the logical IR onto the DataFrame API,
so Catalyst performs all downstream optimization (predicate pushdown
into Parquet scans, join selection, ...). This is the layer at which
PBDS "exposes relevance information as selection conditions to the
DBMS" (paper Sec. 8): sketch filters injected into the IR arrive at
Catalyst as ordinary filters and get pushed into the scan.
"""
from __future__ import annotations

from typing import Mapping

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType

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


def _agg_column(df: DataFrame, spec: AggSpec) -> Column:
    if spec.func == "count" and spec.attr is None:
        return F.count(F.lit(1)).alias(spec.alias)
    if spec.func == "sketch":
        # BITOR of sketch annotations (paper Fig. 6 r3/r7) as a set of
        # raw keys: scalar keys merge via collect_set, key arrays via
        # flatten+distinct. collect_set drops NULL, but a NULL key is
        # provenance too, so it is appended when the group has one.
        dtype = df.schema[spec.attr].dataType
        col = F.col(spec.attr)
        if isinstance(dtype, ArrayType):
            merged = F.array_distinct(F.flatten(F.collect_list(col)))
        else:
            merged = F.collect_set(col)
            merged = F.when(
                F.bool_or(col.isNull()),
                F.concat(merged, F.array(F.lit(None).cast(dtype))),
            ).otherwise(merged)
        return F.array_sort(merged).alias(spec.alias)
    fn = {
        "sum": F.sum,
        "count": F.count,
        "avg": F.avg,
        "min": F.min,
        "max": F.max,
    }[spec.func]
    return fn(F.col(spec.attr)).alias(spec.alias)


def compile_op(q: Op, tables: Mapping[str, DataFrame]) -> DataFrame:
    """Compile the IR to a DataFrame over the given base tables."""
    if isinstance(q, TableAccess):
        return tables[q.name].select(*q.table_schema)
    if isinstance(q, Select):
        return compile_op(q.child, tables).filter(q.cond.to_spark())
    if isinstance(q, Project):
        df = compile_op(q.child, tables)
        return df.select(*(e.to_spark().alias(a) for e, a in q.items))
    if isinstance(q, Aggregate):
        df = compile_op(q.child, tables)
        aggs = [_agg_column(df, s) for s in q.aggs]
        if q.group_by:
            return df.groupBy(*[F.col(g) for g in q.group_by]).agg(*aggs)
        return df.agg(*aggs)
    if isinstance(q, Join):
        l = compile_op(q.left, tables)
        r = compile_op(q.right, tables)
        return l.join(r, on=q.cond.to_spark(), how="inner").select(
            *q.schema()
        )
    if isinstance(q, CrossProduct):
        l = compile_op(q.left, tables)
        r = compile_op(q.right, tables)
        return l.crossJoin(r)
    if isinstance(q, Union):
        l = compile_op(q.left, tables)
        r = compile_op(q.right, tables)
        return l.union(r.toDF(*l.columns))
    if isinstance(q, Distinct):
        return compile_op(q.child, tables).distinct()
    if isinstance(q, TopK):
        df = compile_op(q.child, tables)
        order = [
            F.col(c).asc() if asc else F.col(c).desc() for c, asc in q.order
        ]
        return df.orderBy(*order).limit(q.k)
    raise TypeError(f"cannot compile {type(q).__name__}")
