"""Parquet storage clustered on a sketch attribute + plan inspection.

``write_clustered`` range-partitions and sorts a DataFrame by the
given attribute before writing Parquet with 1 MiB row groups, so that
Spark's Parquet reader can prune row groups via min/max statistics —
the Spark analogue of the index/zone-map exploitation in the paper's
Postgres experiments. The table is not partitioned by directory, so
there is no file-level partition pruning: every file is opened and
its footer statistics decide which row groups are read.

``pushed_filters`` extracts the ``PushedFilters`` entries from the
physical plan: tests assert that the Q[P] rewrite's range disjunction
actually reaches the scan, i.e. that Catalyst treats the injected
sketch predicate exactly like a hand-written WHERE clause.
"""
from __future__ import annotations

import re

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def write_clustered(
    df: DataFrame,
    path: str,
    cluster_by: str,
    *,
    n_files: int = 8,
) -> None:
    """Write ``df`` as Parquet clustered on ``cluster_by``."""
    (
        df.repartitionByRange(n_files, F.col(cluster_by))
        .sortWithinPartitions(cluster_by)
        .write.mode("overwrite")
        .option("parquet.block.size", 1 << 20)
        .parquet(path)
    )


def read_table(spark: SparkSession, path: str) -> DataFrame:
    return spark.read.parquet(path)


def physical_plan(df: DataFrame) -> str:
    """The formatted physical plan as a string."""
    return df._jdf.queryExecution().explainString(
        df._sc._jvm.org.apache.spark.sql.execution.ExplainMode.fromString(
            "extended"
        )
    )


def pushed_filters(df: DataFrame) -> list[str]:
    """All PushedFilters entries of the executed plan's scans."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    return re.findall(r"PushedFilters: \[([^\]]*)\]", plan)
