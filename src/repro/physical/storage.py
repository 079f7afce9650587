"""Parquet storage clustered on a sketch attribute + executed-plan scans.

``write_clustered`` range-partitions and sorts a DataFrame by the
given attribute before writing Parquet with 1 MiB row groups, so that
Spark's Parquet reader can prune row groups via min/max statistics —
the Spark analogue of the index/zone-map exploitation in the paper's
Postgres experiments. The table is not partitioned by directory, so
there is no file-level partition pruning: every file is opened and
its footer statistics decide which row groups are read.

``scan_report`` reads the executed plan's scans: how many rows and
files they read, which filters Catalyst pushed into them, and whether
a Python UDF is evaluated. Tests use it to show that the Q[P] range
disjunction reaches the scan like a hand-written WHERE clause and that
the scan then skips the row groups the sketch excludes.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

_UDF_NODES = ("ArrowEvalPythonExec", "BatchEvalPythonExec")


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


@dataclass(frozen=True)
class ScanReport:
    """What the scans of one executed plan read (see ``scan_report``)."""

    rows: int  # numOutputRows of the Parquet and in-memory scans
    files: int  # numFiles of the Parquet scans
    pushed: tuple[str, ...]  # PushedFilters "[...]" of each Parquet scan
    udf_nodes: int  # Python-UDF evaluation nodes


def _metric(node, name: str) -> int:
    opt = node.metrics().get(name)
    return int(opt.get().value()) if opt.isDefined() else 0


def scan_report(df: DataFrame) -> ScanReport:
    """Scans of ``df``'s executed plan.

    Adaptive plans are entered through their current plan and query
    stages; a reused exchange is not counted twice. ``rows`` and
    ``files`` are SQL metrics, so they are only valid after ``df`` has
    run (e.g. after ``collect``); before that they read 0. The pushed
    filters and UDF nodes are known from planning alone.
    """
    rows = files = udf_nodes = 0
    pushed: list[str] = []
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
            rows += _metric(node, "numOutputRows")
            files += _metric(node, "numFiles")
            opt = node.metadata().get("PushedFilters")
            if opt.isDefined():
                pushed.append(opt.get())
        elif cls == "InMemoryTableScanExec":
            rows += _metric(node, "numOutputRows")
        elif cls in _UDF_NODES:
            udf_nodes += 1
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return ScanReport(rows, files, tuple(pushed), udf_nodes)
