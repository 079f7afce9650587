"""IR -> Spark DataFrame.

``compile_op(q, tables)`` renders ``q`` as one Spark SQL text
(``to_sql(q, "spark", views)``) and returns ``spark.sql(text)``: Spark
parses and analyzes the whole query once, and Catalyst performs all
downstream optimization (predicate pushdown into Parquet scans, join
selection, ...). This is the layer at which PBDS "exposes relevance
information as selection conditions to the DBMS" (paper Sec. 8): a
sketch filter injected into the IR arrives at Catalyst as an ordinary
WHERE clause and gets pushed into the scan.

Each base DataFrame is read through a temp view of its own, with a
generated name that lives as long as the DataFrame object: two
mappings that bind different DataFrames to one relation name never see
each other's rows. The view holds the plan Spark executes for the
DataFrame, ``cacheManager.useCachedData`` of its analyzed plan, so a
cached table appears in every compiled query as its
``InMemoryRelation``. Catalyst then never walks the rows of a
pandas-backed ``LocalRelation`` under it, which made planning cost grow
with the table's row count; an uncached (Parquet) DataFrame keeps its
plan as is.

A view is registered for a DataFrame and its ``is_cached`` flag. When
``cache()`` or ``unpersist()`` flips the flag, the next call registers
a fresh name over the current plan and retires the old one. The old
view is never replaced: replacing a view whose plan is cached uncaches
it, and a view left over a dropped cache would rebuild it silently. One
case is not followed: when another DataFrame's cache served this one's
plan, the view reads that cache until this DataFrame's own flag flips.

Retired views, and the views of garbage-collected DataFrames, are
dropped at the next call through the session catalog, so that a cached
plan stays cached (the public ``Catalog.dropTempView`` would uncache
it). The name registry is module state because the views it mirrors
live in the session catalog, which every caller shares.
"""
from __future__ import annotations

import itertools
import weakref
from typing import Mapping

from pyspark.sql import DataFrame

from repro.algebra.ops import Op
from repro.algebra.to_sql import to_sql

_view_ids = itertools.count()
# DataFrame -> (is_cached when its view was built, view name, retirer)
_views: "weakref.WeakKeyDictionary[DataFrame, tuple[bool, str, weakref.finalize]]" = (
    weakref.WeakKeyDictionary()
)
_stale: list[str] = []


def _view(df: DataFrame) -> str:
    cached = df.is_cached
    entry = _views.get(df)
    if entry is not None:
        built_cached, name, retire = entry
        if built_cached == cached:
            return name
        retire()
    name = f"_pbds_t{next(_view_ids)}"
    jspark = df.sparkSession._jsparkSession
    plan = jspark.sharedState().cacheManager().useCachedData(df._jdf.queryExecution().analyzed())
    df.sparkSession._jvm.org.apache.spark.sql.classic.Dataset.ofRows(
        jspark, plan
    ).createOrReplaceTempView(name)
    _views[df] = (cached, name, weakref.finalize(df, _stale.append, name))
    return name


def compile_op(q: Op, tables: Mapping[str, DataFrame]) -> DataFrame:
    """Compile the IR to a DataFrame over the given base tables."""
    dfs = {rel: tables[rel] for rel in sorted(q.relations())}
    spark = next(iter(dfs.values())).sparkSession
    while _stale:
        spark._jsparkSession.sessionState().catalog().dropTempView(_stale.pop())
    views = {rel: _view(df) for rel, df in dfs.items()}
    return spark.sql(to_sql(q, "spark", views))
