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
each other's rows. When a DataFrame is garbage-collected its view is
dropped at the next call, through the session catalog so that a cached
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
_views: "weakref.WeakKeyDictionary[DataFrame, str]" = weakref.WeakKeyDictionary()
_stale: list[str] = []


def _view(df: DataFrame) -> str:
    name = _views.get(df)
    if name is None:
        name = f"_pbds_t{next(_view_ids)}"
        df.createOrReplaceTempView(name)
        _views[df] = name
        weakref.finalize(df, _stale.append, name)
    return name


def compile_op(q: Op, tables: Mapping[str, DataFrame]) -> DataFrame:
    """Compile the IR to a DataFrame over the given base tables."""
    dfs = {rel: tables[rel] for rel in sorted(q.relations())}
    spark = next(iter(dfs.values())).sparkSession
    while _stale:
        spark._jsparkSession.sessionState().catalog().dropTempView(_stale.pop())
    views = {rel: _view(df) for rel, df in dfs.items()}
    return spark.sql(to_sql(q, "spark", views))
