"""Sketch capture by instrumentation (Fig. 6), per operator class.

Ground truth: the interpreter's exact-lineage ``accurate_sketch``.
Every captured sketch must (a) be a superset of the accurate sketch
(Def. 3) and (b) for these operator classes, equal it exactly —
aggregation's BITOR unions exactly the contributing fragments.
"""
import pandas as pd
import pytest

from repro.algebra.compile_spark import compile_op
from repro.algebra.expr import And, Col, Lit, Or
from repro.algebra.interp import accurate_sketch
from repro.algebra.ops import (
    Aggregate,
    AggSpec,
    Distinct,
    Join,
    Project,
    Select,
    TableAccess,
    TopK,
    Union,
)
from repro.core.capture import ann_col, capture_sketch, instrument
from repro.core.ranges import RangePartition, equi_depth
from repro.core.use import apply_sketches
from repro.physical.storage import scan_report
from repro.workloads import crimes as WC
from repro.workloads import tpch as WT

CITIES = pd.DataFrame(
    {
        "popden": [4200, 6000, 5000, 7000, 2000, 3700, 2500],
        "city": ["Anchorage", "San Diego", "Sacramento", "New York", "Buffalo", "Austin", "Houston"],
        "state": ["AK", "CA", "CA", "NY", "NY", "TX", "TX"],
    }
)
STATES = pd.DataFrame({"st": ["CA", "NY", "TX"], "region": ["W", "E", "S"]})
SCAN = TableAccess("cities", ("popden", "city", "state"))
SSCAN = TableAccess("states", ("st", "region"))
F_STATE = RangePartition("cities", "state", ("DE", "MI", "OK"))
F_POPDEN = RangePartition("cities", "popden", (3000, 5000))
PDB = {"cities": CITIES, "states": STATES}


@pytest.fixture(scope="module")
def db(spark):
    return {
        "cities": spark.createDataFrame(CITIES),
        "states": spark.createDataFrame(STATES),
    }


def assert_capture_accurate(q, db, partitions, pdb=PDB):
    got = capture_sketch(q, db, partitions)
    exp = accurate_sketch(q, pdb, partitions, minmax_witness=True)
    for rel in partitions:
        assert got[rel].fragments == exp[rel], (
            rel,
            sorted(got[rel].fragments),
            sorted(exp[rel]),
        )


class TestPerOperator:
    def test_selection(self, db):
        q = Select(SCAN, Col("state").eq(Lit("CA")))
        assert_capture_accurate(q, db, {"cities": F_STATE})

    def test_selection_popden_partition(self, db):
        q = Select(SCAN, Col("popden").gt(Lit(5500)))
        assert_capture_accurate(q, db, {"cities": F_POPDEN})

    def test_projection(self, db):
        q = Project(Select(SCAN, Col("state").eq(Lit("NY"))), ((Col("city"), "city"),))
        assert_capture_accurate(q, db, {"cities": F_STATE})

    def test_aggregation_bitor(self, db):
        q = Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),))
        assert_capture_accurate(q, db, {"cities": F_POPDEN})

    def test_aggregation_global(self, db):
        q = Aggregate(Select(SCAN, Col("state").eq(Lit("TX"))), (), (AggSpec("sum", "popden", "s"),))
        assert_capture_accurate(q, db, {"cities": F_STATE})

    def test_topk_running_example(self, db):
        # paper Ex. 9: INSTR(F_state, Q2) yields {f1}
        q2 = TopK(
            Aggregate(SCAN, ("state",), (AggSpec("avg", "popden", "avgden"),)),
            (("avgden", False), ("state", True)),
            1,
        )
        got = capture_sketch(q2, db, {"cities": F_STATE})
        assert got["cities"].fragments == frozenset({0})

    def test_join_propagates_both_sides(self, db):
        f_states = RangePartition("states", "st", ("M",))
        q = Join(Select(SCAN, Col("state").eq(Lit("NY"))), SSCAN, Col("state").eq(Col("st")))
        assert_capture_accurate(q, db, {"cities": F_STATE, "states": f_states})

    def test_join_single_side_partition(self, db):
        q = Join(SCAN, SSCAN, Col("state").eq(Col("st")))
        assert_capture_accurate(q, db, {"cities": F_POPDEN})

    def test_union_both_branches(self, db):
        q = Union(
            Select(SCAN, Col("state").eq(Lit("CA"))),
            Select(SCAN, Col("popden").gt(Lit(6500))),
        )
        assert_capture_accurate(q, db, {"cities": F_STATE})

    def test_distinct_merges(self, db):
        q = Distinct(Project(SCAN, ((Col("state"), "state"),)))
        assert_capture_accurate(q, db, {"cities": F_STATE})

    def test_minmax_witness_branch(self, db):
        # r3 min/max: only tuples attaining the extremum contribute
        q = Aggregate(SCAN, ("state",), (AggSpec("max", "popden", "mx"),))
        got = capture_sketch(q, db, {"cities": F_POPDEN})
        exp = accurate_sketch(q, PDB, {"cities": F_POPDEN}, minmax_witness=True)
        assert got["cities"].fragments == exp["cities"]
        # and it is strictly smaller than whole-group lineage here
        full = accurate_sketch(q, PDB, {"cities": F_POPDEN}, minmax_witness=False)
        assert got["cities"].fragments < full["cities"]

    @pytest.mark.parametrize("part", [F_STATE, RangePartition("cities", "popden", (5500, 6500))])
    def test_minmax_witness_ties(self, spark, part):
        # two witnesses of one group (CA's max 5000 twice) must not
        # count as two groups above the max aggregate
        t = pd.DataFrame(
            {
                "popden": [5000, 5000, 7000, 6000],
                "city": ["a", "b", "c", "d"],
                "state": ["CA", "CA", "NY", "TX"],
            }
        )
        inner = Aggregate(SCAN, ("state",), (AggSpec("max", "popden", "mx"),))
        q = Select(
            Aggregate(inner, ("mx",), (AggSpec("count", None, "n"),)),
            Col("n").lt(Lit(2)),
        )
        assert_capture_accurate(
            q, {"cities": spark.createDataFrame(t)}, {"cities": part}, {"cities": t}
        )

    def test_min_witness_branch(self, db):
        q = Aggregate(SCAN, ("state",), (AggSpec("min", "popden", "mn"),))
        assert_capture_accurate(q, db, {"cities": F_POPDEN})

    def test_nested_aggregation(self, db):
        inner = Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),))
        q = Aggregate(Select(inner, Col("n").gt(Lit(1))), (), (AggSpec("count", None, "k"),))
        assert_capture_accurate(q, db, {"cities": F_STATE})

    def test_disjunctive_selection(self, db):
        q = Select(SCAN, Or(Col("state").eq(Lit("AK")), Col("popden").lt(Lit(2200))))
        assert_capture_accurate(q, db, {"cities": F_POPDEN})

    @pytest.mark.parametrize("states_left", [True, False])
    def test_union_branch_without_relation(self, db, states_left):
        # the cities branch carries no states key: an empty array that
        # the union widens to the string key type
        sts = Project(Select(SSCAN, Col("region").ne(Lit("E"))), ((Col("st"), "s"),))
        cts = Project(SCAN, ((Col("city"), "s"),))
        q = Union(sts, cts) if states_left else Union(cts, sts)
        assert_capture_accurate(q, db, {"states": RangePartition("states", "st", ("M",))})


NULLS = pd.DataFrame({"a": [1.0, None, 5.0, 8.0, None], "v": [1, 99, 3, 4, 2]})
NSCAN = TableAccess("n", ("a", "v"))


@pytest.mark.parametrize(
    "q",
    [
        TopK(NSCAN, (("v", False),), 1),
        Aggregate(NSCAN, ("a",), (AggSpec("sum", "v", "s"),)),
        Aggregate(Select(NSCAN, Col("v").gt(Lit(2))), (), (AggSpec("sum", "v", "s"),)),
        Distinct(Project(NSCAN, ((Col("a"), "a"),))),
    ],
    ids=["topk", "group_on_key", "global", "distinct"],
)
def test_null_key_in_provenance(spark, q):
    # Spark holds SQL NULLs, the interpreter NaN; both map to the last
    # fragment (NULL has no fragment of its own yet)
    sdf = spark.createDataFrame(
        [(None if pd.isna(a) else int(a), v) for a, v in NULLS.itertuples(index=False)],
        "a int, v long",
    )
    assert_capture_accurate(
        q, {"n": sdf}, {"n": RangePartition("n", "a", (3, 6))}, {"n": NULLS}
    )


# a group (NY) whose max is NULL: its witness is matched null-safely
WITNESS = pd.DataFrame(
    {
        "city": list("abcde"),
        "state": ["CA", "CA", "NY", "TX", "TX"],
        "popden": [5000.0, None, None, 6000.0, 3000.0],
    }
)
WSCAN = TableAccess("w", ("city", "state", "popden"))
W_POPDEN = RangePartition("w", "popden", (4000, 5500))
WITNESS_Q = Select(
    Aggregate(
        Aggregate(WSCAN, ("state",), (AggSpec("max", "popden", "mx"),)),
        (),
        (AggSpec("count", None, "n"),),
    ),
    Col("n").gt(Lit(2)),
)


def test_minmax_witness_all_null_group(spark):
    sdf = spark.createDataFrame(
        [(c, s, None if pd.isna(p) else p) for c, s, p in WITNESS.itertuples(index=False)],
        "city string, state string, popden double",
    )
    sdb, parts = {"w": sdf}, {"w": W_POPDEN}
    assert_capture_accurate(WITNESS_Q, sdb, parts, {"w": WITNESS})
    sk = capture_sketch(WITNESS_Q, sdb, parts)
    assert sk["w"].fragments == frozenset({1, 2})
    rows = compile_op(apply_sketches(WITNESS_Q, sk), sdb).collect()
    assert [r["n"] for r in rows] == [3]


BENCHMARK_CAPTURES = [
    pytest.param("tpch", WT.all_queries()[n], WT.SKETCH_ATTRS[n], id=n)
    for n in ("Q3", "Q10", "Q15", "Q18", "Q19")
] + [
    pytest.param("crimes", WC.cq1(), WC.SKETCH_ATTRS["C-Q1"], id="C-Q1"),
    *(
        pytest.param("crimes", WC.cq2(t), WC.SKETCH_ATTRS["C-Q2"], id=f"C-Q2@{t}")
        for t in (50, 150, 400)
    ),
]


@pytest.mark.parametrize("workload,q,attrs", BENCHMARK_CAPTURES)
def test_benchmark_capture_native(request, workload, q, attrs):
    """Lazy INIT on the benchmark's capture queries at PS400: the
    instrumented plan runs no Python UDF and the sketch equals the
    interpreter's lineage sketch."""
    sdb = request.getfixturevalue(f"{workload}_db")
    pdb = request.getfixturevalue(f"{workload}_pdb")
    parts = {r: equi_depth(pdb[r][a], r, a, 400) for r, a in attrs.items()}
    df = compile_op(instrument(q, parts), sdb)
    df.collect()
    assert scan_report(df).udf_nodes == 0
    assert_capture_accurate(q, sdb, parts, pdb)


class TestMethodsAndEncoding:
    def test_instrument_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            instrument(SCAN, {"nope": F_STATE})

    def test_instrument_requires_some_partition(self):
        with pytest.raises(ValueError):
            instrument(SCAN, {})

    def test_instrumented_schema(self):
        plan = instrument(Select(SCAN, Col("state").eq(Lit("CA"))), {"cities": F_STATE})
        assert plan.schema() == (ann_col("cities"),)

    def test_empty_result_empty_sketch(self, db):
        q = Select(SCAN, Col("state").eq(Lit("ZZ")))
        got = capture_sketch(q, db, {"cities": F_STATE})
        assert got["cities"].fragments == frozenset()

    def test_superset_invariant_random(self, db):
        # Def. 3: captured is always a superset of accurate lineage
        for cond in [Col("popden").gt(Lit(2000)), Col("state").ne(Lit("CA"))]:
            q = Aggregate(Select(SCAN, cond), ("state",), (AggSpec("sum", "popden", "s"),))
            got = capture_sketch(q, db, {"cities": F_POPDEN})
            exp = accurate_sketch(q, PDB, {"cities": F_POPDEN})
            assert got["cities"].fragments >= exp["cities"]
