"""T4/T5 / paper Fig. 11 — TPC-H runtimes with and without PBDS, and
the relative overhead of sketch capture.

For each beneficiary query and partition size:
* ``nops_s``      — plain query runtime,
* ``ps_s``        — runtime of Q[P] with the captured sketch,
* ``speedup``     — nops_s / ps_s (paper: up to orders of magnitude),
* ``cap_s``       — runtime of the whole capture: the instrumented
  (INSTR) query plus mapping its keys to fragments,
* ``cap_overhead_pct`` — 100 * (cap_s - nops_s) / nops_s (paper:
  usually < 100 % up to PS10000).

``storage='disk'`` scans clustered Parquet (the Postgres/zone-map
path); ``storage='mem'`` scans cached DataFrames (the MonetDB path).
"""
from __future__ import annotations

from repro.core.capture import capture_sketch
from repro.core.use import apply_sketches
from repro.experiments.common import Dataset, fmt_table, query_seconds, timed
from repro.workloads import tpch

COLUMNS = (
    "query", "storage", "n_fragments", "coverage", "nops_s", "ps_s",
    "speedup", "cap_s", "cap_overhead_pct",
)
QUERIES = ("Q3", "Q10", "Q15", "Q18", "Q19")


def run(
    spark,
    ds: Dataset,
    *,
    queries=QUERIES,
    n_frags=(32, 400, 4000),
    storages=("disk", "mem"),
    reps: int = 3,
) -> list[dict]:
    all_q = tpch.all_queries()
    rows = []
    for qname in queries:
        q = all_q[qname]
        attrs = tpch.SKETCH_ATTRS[qname]
        for storage in storages:
            tables = ds.disk if storage == "disk" else ds.mem
            nops = query_seconds(q, tables, reps=reps)
            for n in n_frags:
                parts = ds.partitions(attrs, n)
                sketches = capture_sketch(q, tables, parts)
                cap = timed(lambda: capture_sketch(q, tables, parts), reps=reps)
                ps = query_seconds(apply_sketches(q, sketches), tables, reps=reps)
                rows.append(
                    {
                        "query": qname,
                        "storage": storage,
                        "n_fragments": n,
                        "coverage": max(
                            s.selectivity() for s in sketches.values()
                        ),
                        "nops_s": nops,
                        "ps_s": ps,
                        "speedup": nops / ps if ps > 0 else float("inf"),
                        "cap_s": cap,
                        "cap_overhead_pct": 100.0 * (cap - nops) / nops,
                    }
                )
    return rows


def format_table(rows) -> str:
    return fmt_table(
        rows,
        COLUMNS,
        "T4+T5 (Fig. 11): TPC-H runtime No-PS vs PS-n and capture overhead",
    )
