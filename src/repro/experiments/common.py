"""Shared experiment plumbing: timed runs, Parquet-clustered datasets,
equi-depth partitions, and table formatting."""
from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Mapping, Sequence

from pyspark.sql import DataFrame, SparkSession

from repro.algebra.compile_spark import compile_op
from repro.algebra.ops import Op
from repro.core.ranges import RangePartition, equi_depth
from repro.physical.storage import read_table, write_clustered

# scale factors: the paper uses TPC-H SF1/SF10 and multi-GB real
# datasets. Spark-local queries carry ~0.2-0.5 s of fixed planning and
# task-scheduling latency, so the benchmark defaults are chosen large
# enough that scan/shuffle work dominates (lineitem ~1.2M rows); the
# jobs that regenerate EXPERIMENTS.md run TPC-H at the paper's SF1.
BENCH_TPCH_SF = float(os.environ.get("REPRO_TPCH_SF", "0.2"))
BENCH_CRIMES_SF = float(os.environ.get("REPRO_CRIMES_SF", "0.2"))
BENCH_MOVIES_SF = float(os.environ.get("REPRO_MOVIES_SF", "0.05"))
BENCH_SOF_SF = float(os.environ.get("REPRO_SOF_SF", "0.01"))


def timed(thunk: Callable[[], object], *, reps: int = 3, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``thunk`` over ``reps`` runs."""
    for _ in range(warmup):
        thunk()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_query(q: Op, tables: Mapping[str, DataFrame]) -> int:
    """Execute a query to completion; returns the row count."""
    return len(compile_op(q, tables).collect())


def query_seconds(q: Op, tables: Mapping[str, DataFrame], *, reps: int = 3) -> float:
    return timed(lambda: run_query(q, tables), reps=reps)


class Dataset:
    """A workload's tables in three forms: pandas (ground truth /
    statistics), cached in-memory Spark (the MonetDB-style main-memory
    path), and Parquet clustered on the sketch attributes (the
    Postgres+zone-map-style disk path)."""

    def __init__(
        self,
        spark: SparkSession,
        pdb,
        *,
        base_dir: str,
        cluster_by: Mapping[str, str],
        n_files: int = 8,
    ):
        self.spark = spark
        self.pdb = pdb
        self.mem: dict[str, DataFrame] = {}
        self.disk: dict[str, DataFrame] = {}
        for name, pdf in pdb.items():
            df = spark.createDataFrame(pdf)
            self.mem[name] = df
            path = os.path.join(base_dir, name)
            attr = cluster_by.get(name, pdf.columns[0])
            write_clustered(df, path, attr, n_files=n_files)
            self.disk[name] = read_table(spark, path)
        for df in self.mem.values():
            df.cache().count()
        self._parts: dict[tuple[str, str, int], RangePartition] = {}

    def partition(self, rel: str, attr: str, n_frag: int) -> RangePartition:
        key = (rel, attr, n_frag)
        if key not in self._parts:
            self._parts[key] = equi_depth(self.pdb[rel][attr], rel, attr, n_frag)
        return self._parts[key]

    def partitions(
        self, sketch_attrs: Mapping[str, str], n_frag: int
    ) -> dict[str, RangePartition]:
        return {
            rel: self.partition(rel, attr, n_frag)
            for rel, attr in sketch_attrs.items()
        }

    def unpersist(self):
        for df in self.mem.values():
            df.unpersist()


TPCH_CLUSTER = {
    "lineitem": "l_orderkey",
    "orders": "o_orderkey",
    "customer": "c_custkey",
    "part": "p_partkey",
}
CRIMES_CLUSTER = {"crimes": "cr_block"}
MOVIES_CLUSTER = {"ratings": "r_movieid", "movie_tags": "t_movieid"}
SOF_CLUSTER = {
    "users": "u_id",
    "posts": "p_user",
    "comments": "c_user",
    "badges": "b_user",
}


def tpch_dataset(spark, base_dir: str, sf: float = BENCH_TPCH_SF) -> Dataset:
    from repro.workloads import tpch

    return Dataset(spark, tpch.tables_pandas(sf=sf), base_dir=base_dir, cluster_by=TPCH_CLUSTER)


def crimes_dataset(spark, base_dir: str, sf: float = BENCH_CRIMES_SF) -> Dataset:
    from repro.workloads import crimes

    return Dataset(spark, crimes.tables_pandas(sf=sf), base_dir=base_dir, cluster_by=CRIMES_CLUSTER)


def movies_dataset(spark, base_dir: str, sf: float = BENCH_MOVIES_SF) -> Dataset:
    from repro.workloads import movies

    return Dataset(spark, movies.tables_pandas(sf=sf), base_dir=base_dir, cluster_by=MOVIES_CLUSTER)


def sof_dataset(spark, base_dir: str, sf: float = BENCH_SOF_SF) -> Dataset:
    from repro.workloads import sof

    return Dataset(spark, sof.tables_pandas(sf=sf), base_dir=base_dir, cluster_by=SOF_CLUSTER)


def fmt_table(rows: Sequence[Mapping], columns: Sequence[str], title: str) -> str:
    """Plain-text table like the paper's figures."""
    widths = {
        c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        lines.append("  ".join(_cell(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
