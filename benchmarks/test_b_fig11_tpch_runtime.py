"""T4 (Fig. 11a/d) — TPC-H query runtime: No-PS vs PS-400.

One benchmark per (query, variant) over clustered Parquet (the
disk/zone-map path). The PS variant uses a sketch captured once per
module; the shape to reproduce is PS <= No-PS for the selective
queries, with the largest wins on the top-k joins (Q3/Q10).
"""
import pandas as pd
import pytest

from repro.algebra.compile_spark import compile_op
from repro.core.capture import capture_sketch
from repro.core.use import apply_sketches
from repro.oracle import _canon
from repro.workloads import tpch

QUERIES = ("Q3", "Q10", "Q15", "Q18", "Q19")
N_FRAG = 400


@pytest.fixture(scope="module")
def sketches(tpch_ds):
    out = {}
    for qname in QUERIES:
        q = tpch.all_queries()[qname]
        parts = tpch_ds.partitions(tpch.SKETCH_ATTRS[qname], N_FRAG)
        out[qname] = capture_sketch(q, tpch_ds.disk, parts)
    return out


@pytest.mark.parametrize("qname", QUERIES)
def test_no_ps(benchmark, tpch_ds, qname):
    q = tpch.all_queries()[qname]
    benchmark.pedantic(
        lambda: compile_op(q, tpch_ds.disk).collect(),
        rounds=3, iterations=1, warmup_rounds=1,
    )


@pytest.mark.parametrize("qname", QUERIES)
def test_ps400(benchmark, tpch_ds, sketches, qname):
    q = apply_sketches(tpch.all_queries()[qname], sketches[qname])
    rows = benchmark.pedantic(
        lambda: compile_op(q, tpch_ds.disk).collect(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    # the rewritten query returns the same multiset of rows as plain Q
    want = compile_op(tpch.all_queries()[qname], tpch_ds.disk).collect()
    pd.testing.assert_frame_equal(
        _canon(pd.DataFrame(rows)), _canon(pd.DataFrame(want)), check_dtype=False
    )
