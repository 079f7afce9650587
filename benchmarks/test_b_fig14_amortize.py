"""T6 (Fig. 14) — amortization of capture cost.

Measures C_NoPS, C_cap and C_use for Q3 and Q18 at PS-{32,400,4000} on
the disk path, prints the resulting optimal-interval table, and
benchmarks the PS-400 use-run (the amortized steady-state cost)."""
import pytest

from repro.algebra.compile_spark import compile_op
from repro.core.capture import capture_sketch
from repro.core.selftune import amortization_table
from repro.core.use import apply_sketches
from repro.experiments.common import timed
from repro.workloads import tpch

QUERIES = ("Q3", "Q18")


@pytest.fixture(scope="module")
def costs(tpch_ds):
    out = {}
    for qname in QUERIES:
        q = tpch.all_queries()[qname]
        nops = timed(lambda: compile_op(q, tpch_ds.disk).collect(), reps=2)
        opts = {}
        for n in (32, 400, 4000):
            parts = tpch_ds.partitions(tpch.SKETCH_ATTRS[qname], n)
            sk = capture_sketch(q, tpch_ds.disk, parts)
            cap = timed(lambda: capture_sketch(q, tpch_ds.disk, parts), reps=2)
            use = timed(
                lambda: compile_op(apply_sketches(q, sk), tpch_ds.disk).collect(),
                reps=2,
            )
            opts[f"PS{n}"] = (cap, use)
        out[qname] = (nops, opts)
        rows = amortization_table(nops, opts)
        print(f"\nT6 (Fig. 14) {qname}: " + "; ".join(
            f"{label}: [{lo}, {hi if hi is not None else 'inf'})" for label, lo, hi in rows
        ))
    return out


@pytest.mark.parametrize("qname", QUERIES)
def test_use_run_ps400(benchmark, tpch_ds, costs, qname):
    q = tpch.all_queries()[qname]
    parts = tpch_ds.partitions(tpch.SKETCH_ATTRS[qname], 400)
    sk = capture_sketch(q, tpch_ds.disk, parts)
    benchmark.pedantic(
        lambda: compile_op(apply_sketches(q, sk), tpch_ds.disk).collect(),
        rounds=3, iterations=1, warmup_rounds=1,
    )


@pytest.mark.parametrize("qname", QUERIES)
def test_amortization_intervals_well_formed(costs, qname):
    nops, opts = costs[qname]
    rows = amortization_table(nops, opts)
    assert rows[-1][2] is None  # one open-ended winner
    for (l1, s1, e1), (l2, s2, e2) in zip(rows, rows[1:]):
        assert e1 == s2  # intervals tile [1, inf)
