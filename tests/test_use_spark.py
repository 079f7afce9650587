"""Q[P] on Spark: result preservation, predicate shape, and the core
physical claim — injected sketch filters are pushed into Parquet scans
(the paper's "expose relevance as selection conditions the DBMS can
serve from physical design"), and the scan then skips the row groups
the sketch excludes when the table is clustered on the sketch
attribute (measured from the executed plan, not simulated)."""
import gc

import numpy as np
import pandas as pd
import pytest
from pyspark import StorageLevel

from repro.algebra import compile_spark, interp

from repro.algebra.compile_spark import compile_op
from repro.algebra.expr import And, Col, Lit, Or
from repro.algebra.ops import Aggregate, AggSpec, Select, TableAccess, TopK
from repro.algebra.to_sql import to_sql
from repro.core.capture import capture_sketch
from repro.core.ranges import RangePartition, equi_depth
from repro.core.safety import choose_safe_attributes
from repro.core.sketch import ProvenanceSketch
from repro.core.use import (
    MAX_DISJUNCTS,
    apply_sketches,
    range_condition,
    sketch_predicate,
)
from repro.oracle import _canon, assert_equivalent
from repro.physical.storage import read_table, scan_report, write_clustered

CITIES = pd.DataFrame(
    {
        "popden": [4200, 6000, 5000, 7000, 2000, 3700, 2500],
        "city": ["Anchorage", "San Diego", "Sacramento", "New York", "Buffalo", "Austin", "Houston"],
        "state": ["AK", "CA", "CA", "NY", "NY", "TX", "TX"],
    }
)
SCAN = TableAccess("cities", ("popden", "city", "state"))
F_STATE = RangePartition("cities", "state", ("DE", "MI", "OK"))
F_POPDEN = RangePartition("cities", "popden", (3000, 5000))
F_POPDEN_FINE = RangePartition(
    "cities",
    "popden",
    (1000, 2000, 2500, 3000, 3700, 4000, 4200, 4500, 5000, 5500, 6000, 6500, 7000),
)


class TestPredicateConstruction:
    def test_range_condition_bounded(self):
        assert range_condition("a", 10, 20).to_sql() == "((a > 10) AND (a <= 20))"

    def test_range_condition_open_low(self):
        assert range_condition("a", None, 20).to_sql() == "(a <= 20)"

    def test_range_condition_open_high(self):
        assert range_condition("a", 10, None).to_sql() == "(a > 10)"

    def test_range_condition_unrestricted(self):
        assert range_condition("a", None, None) is None

    def test_sketch_predicate_single_fragment(self):
        sk = ProvenanceSketch(F_STATE, frozenset({0}))
        assert sketch_predicate(sk).to_sql() == "(state <= 'DE')"

    def test_sketch_predicate_adjacent_merge(self):
        # paper Sec. 8.1: {f1, f2} -> one BETWEEN-style range
        sk = ProvenanceSketch(F_STATE, frozenset({0, 1}))
        assert sketch_predicate(sk).to_sql() == "(state <= 'MI')"

    def test_sketch_predicate_disjunction(self):
        sk = ProvenanceSketch(F_STATE, frozenset({0, 2}))
        sql = sketch_predicate(sk).to_sql()
        assert "OR" in sql and "'DE'" in sql and "'MI'" in sql and "'OK'" in sql

    def test_full_sketch_no_predicate(self):
        sk = ProvenanceSketch(F_STATE, frozenset({0, 1, 2, 3}))
        assert sketch_predicate(sk) is None

    def test_empty_sketch_false_predicate(self):
        sk = ProvenanceSketch(F_STATE, frozenset())
        assert sketch_predicate(sk).to_sql() == "FALSE"


class TestRewrite:
    def q2(self):
        return TopK(
            Aggregate(SCAN, ("state",), (AggSpec("avg", "popden", "avgden"),)),
            (("avgden", False), ("state", True)),
            1,
        )

    def test_paper_q2_rewrite(self, spark):
        # paper Ex. 4: Q2[P_state] restricts to state BETWEEN AL and DE
        db = {"cities": spark.createDataFrame(CITIES)}
        sk = {"cities": ProvenanceSketch(F_STATE, frozenset({0}))}
        qp = apply_sketches(self.q2(), sk)
        assert_equivalent(compile_op(qp, db), to_sql(self.q2()), cities=CITIES)

    def test_full_sketch_identity(self):
        sk = {"cities": ProvenanceSketch(F_STATE, frozenset({0, 1, 2, 3}))}
        assert apply_sketches(self.q2(), sk) == self.q2()

    def test_multi_fragment_rewrite_result(self, spark):
        db = {"cities": spark.createDataFrame(CITIES)}
        q = Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),))
        sk = {"cities": ProvenanceSketch(F_POPDEN, frozenset({0, 2}))}
        qp = apply_sketches(q, sk)
        out = compile_op(qp, db).toPandas()
        # fragment 1 = popden in (3000, 5000]: drops Anchorage, Sacramento, Austin
        assert set(out["state"]) == {"CA", "NY", "TX"}
        assert out.set_index("state")["n"].to_dict() == {"CA": 1, "NY": 2, "TX": 1}


class TestNullKeys:
    """The last fragment also holds the NULLs (``fragment_of_series``),
    so a sketch holding it must let NULL rows through."""

    SCAN = TableAccess("t", ("a", "v"))
    TOP1 = TopK(SCAN, (("v", False),), 1)
    CUTS = RangePartition("t", "a", (3, 6))

    def _qp_equals_q(self, sdf, pdf):
        db = {"t": sdf}
        sk = capture_sketch(self.TOP1, db, {"t": self.CUTS})
        assert sk["t"].fragments == frozenset({2})
        got = compile_op(apply_sketches(self.TOP1, sk), db).toPandas()
        want = compile_op(self.TOP1, db).toPandas()
        pd.testing.assert_frame_equal(got, want)
        pd.testing.assert_frame_equal(
            got, interp.result_frame(self.TOP1, {"t": pdf}), check_dtype=False
        )
        return got

    def test_null_key_qp_equals_q(self, spark):
        rows = [(1, 1), (None, 99), (5, 3), (8, 80)]
        assert choose_safe_attributes(self.TOP1, {"t": ["a"]}) == {"t": "a"}
        got = self._qp_equals_q(
            spark.createDataFrame(rows, "a int, v long"),
            pd.DataFrame(rows, columns=["a", "v"]),
        )
        assert got["a"].isna().all() and list(got["v"]) == [99]

    def test_nan_key_qp_equals_q(self, spark):
        # Spark sorts NaN above every cut, so (a > 6) already keeps it
        rows = [(1.0, 1), (float("nan"), 99), (5.0, 3), (8.0, 80)]
        got = self._qp_equals_q(
            spark.createDataFrame(rows, "a double, v long"),
            pd.DataFrame(rows, columns=["a", "v"]),
        )
        assert np.isnan(got["a"][0]) and list(got["v"]) == [99]


    def test_equi_depth_over_null_column(self, spark):
        rows = [(1.0, 1), (2.0, 5), (None, 99), (4.0, 3), (5.0, 7), (6.0, 2), (7.0, 80), (8.0, 4)]
        db = {"t": spark.createDataFrame(rows, "a double, v long")}
        part = equi_depth(pd.DataFrame(rows, columns=["a", "v"])["a"], "t", "a", 4)
        assert part.boundaries == (2.0, 5.0, 6.0)
        for q in (self.TOP1, Select(self.SCAN, Col("v").lt(Lit(5)))):
            sk = capture_sketch(q, db, {"t": part})
            got = compile_op(apply_sketches(q, sk), db).toPandas()
            pd.testing.assert_frame_equal(_canon(got), _canon(compile_op(q, db).toPandas()))


def _leaves(df) -> set[str]:
    """Class names of the leaves of ``df``'s analyzed plan."""
    leaves = df._jdf.queryExecution().analyzed().collectLeaves()
    return {leaves.apply(i).getClass().getSimpleName() for i in range(leaves.size())}


def _reads_memory(df) -> bool:
    """Whether ``df``'s physical plan scans an in-memory cache."""
    return "InMemoryTableScan" in df._jdf.queryExecution().executedPlan().toString()


class TestViews:
    def test_same_name_different_mappings(self, spark):
        # each mapping reads its own DataFrame, whatever was bound before
        q = Aggregate(SCAN, (), (AggSpec("count", None, "n"),))
        small = {"cities": spark.createDataFrame(CITIES.head(2))}
        full = {"cities": spark.createDataFrame(CITIES)}
        assert compile_op(q, small).collect()[0]["n"] == 2
        assert compile_op(q, full).collect()[0]["n"] == len(CITIES)
        assert compile_op(q, small).collect()[0]["n"] == 2

    def test_view_dropped_with_dataframe(self, spark):
        q = Aggregate(SCAN, (), (AggSpec("count", None, "n"),))
        df = spark.createDataFrame(CITIES)
        counted = compile_op(q, {"cities": df})
        name = compile_spark._view(df)
        assert spark.catalog.tableExists(name)
        del df
        gc.collect()
        compile_op(q, {"cities": spark.createDataFrame(CITIES)})
        assert not spark.catalog.tableExists(name)
        # a query compiled before still runs: it was analyzed at compile
        assert counted.collect()[0]["n"] == len(CITIES)

    def test_cached_table_served_from_memory(self, spark):
        cached = spark.createDataFrame(CITIES)
        cached.cache().count()
        try:
            for _ in range(2):  # registering the view must not uncache it
                df = compile_op(Select(SCAN, Col("popden").gt(Lit(3000))), {"cities": cached})
                assert len(df.collect()) == 5
                assert scan_report(df).rows > 0
            assert cached.is_cached
        finally:
            cached.unpersist()

    def test_cached_table_planned_as_in_memory_relation(self, spark):
        # the pandas rows stay under the cache: Catalyst plans over the
        # InMemoryRelation, not over a LocalRelation holding every row
        q = Select(SCAN, Col("popden").gt(Lit(3000)))
        assert "LocalRelation" in _leaves(compile_op(q, {"cities": spark.createDataFrame(CITIES)}))
        cached = spark.createDataFrame(CITIES)
        cached.cache().count()
        try:
            assert _leaves(compile_op(q, {"cities": cached})) == {"InMemoryRelation"}
        finally:
            cached.unpersist()

    def test_cache_after_compile(self, spark):
        q = Select(SCAN, Col("popden").gt(Lit(3000)))
        df = spark.createDataFrame(CITIES)
        assert not _reads_memory(compile_op(q, {"cities": df}))
        df.cache().count()
        try:
            got = compile_op(q, {"cities": df})
            assert _reads_memory(got)
            assert len(got.collect()) == 5
        finally:
            df.unpersist()

    def test_unpersist_after_compile(self, spark):
        q = Select(SCAN, Col("popden").gt(Lit(3000)))
        df = spark.createDataFrame(CITIES)
        df.cache().count()
        assert _reads_memory(compile_op(q, {"cities": df}))
        df.unpersist(blocking=True)
        got = compile_op(q, {"cities": df})
        assert not _reads_memory(got)
        assert len(got.collect()) == 5
        # a view left over the dropped cache would have rebuilt it
        assert df.storageLevel == StorageLevel.NONE

    def test_reregistering_never_uncaches(self, spark):
        q = Aggregate(SCAN, (), (AggSpec("count", None, "n"),))
        df = spark.createDataFrame(CITIES)
        df.cache().count()
        try:
            assert compile_op(q, {"cities": df}).collect()[0]["n"] == len(CITIES)
            df.unpersist(blocking=True)
            assert compile_op(q, {"cities": df}).collect()[0]["n"] == len(CITIES)
            df.cache().count()
            for _ in range(2):
                got = compile_op(q, {"cities": df})
                assert _reads_memory(got)
                assert got.collect()[0]["n"] == len(CITIES)
                assert df.is_cached and df.storageLevel.useMemory
        finally:
            df.unpersist()

    def test_view_of_old_cache_state_retired(self, spark):
        q = Aggregate(SCAN, (), (AggSpec("count", None, "n"),))
        df = spark.createDataFrame(CITIES)
        counted = compile_op(q, {"cities": df})
        old = compile_spark._view(df)
        df.cache().count()
        try:
            compile_op(q, {"cities": df})
            compile_op(q, {"cities": df})
            assert compile_spark._view(df) != old
            assert not spark.catalog.tableExists(old)
            assert counted.collect()[0]["n"] == len(CITIES)
        finally:
            df.unpersist()


class TestParquetPushdown:
    @pytest.fixture(scope="class")
    def parquet_cities(self, spark, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("pq") / "cities")
        write_clustered(spark.createDataFrame(CITIES), path, "popden", n_files=2)
        return read_table(spark, path)

    def test_sketch_filter_is_pushed(self, spark, parquet_cities):
        db = {"cities": parquet_cities}
        q = Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),))
        sk = {"cities": ProvenanceSketch(F_POPDEN, frozenset({1}))}
        df = compile_op(apply_sketches(q, sk), db)
        pushed = " ".join(scan_report(df).pushed)
        assert "popden" in pushed, f"sketch range not pushed to scan: {pushed}"
        assert "GreaterThan" in pushed and "LessThanOrEqual" in pushed

    def test_plain_query_no_popden_filter(self, spark, parquet_cities):
        db = {"cities": parquet_cities}
        q = Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),))
        pushed = " ".join(scan_report(compile_op(q, db)).pushed)
        assert "popden" not in pushed

    def test_pushed_disjunction(self, spark, parquet_cities):
        db = {"cities": parquet_cities}
        q = Select(SCAN, Col("city").ne(Lit("")))
        sk = {"cities": ProvenanceSketch(F_POPDEN, frozenset({0, 2}))}
        df = compile_op(apply_sketches(q, sk), db)
        pushed = " ".join(scan_report(df).pushed)
        assert "Or" in pushed and "popden" in pushed

    def test_results_equal_on_parquet(self, spark, parquet_cities):
        db = {"cities": parquet_cities}
        q = TopK(
            Aggregate(SCAN, ("state",), (AggSpec("sum", "popden", "tot"),)),
            (("tot", False), ("state", True)),
            2,
        )
        sk = {"cities": ProvenanceSketch(F_POPDEN, frozenset({0, 1, 2}))}
        a = compile_op(q, db).toPandas()
        b = compile_op(apply_sketches(q, sk), db).toPandas()
        pd.testing.assert_frame_equal(a, b)

    def test_large_sketch_native_or(self, spark, parquet_cities):
        # every city but Austin (popden 3700, fragment 4): five merged
        # ranges, coarsened to MAX_DISJUNCTS without readmitting Austin
        db = {"cities": parquet_cities}
        q = Aggregate(
            Select(SCAN, Col("city").ne(Lit("Austin"))),
            ("state",),
            (AggSpec("count", None, "n"),),
        )
        sk = ProvenanceSketch(F_POPDEN_FINE, frozenset({1, 2, 6, 8, 10, 12}))
        assert len(F_POPDEN_FINE.merged_ranges(sk.fragments)) > MAX_DISJUNCTS
        df = compile_op(apply_sketches(q, {"cities": sk}), db)
        got = df.toPandas()
        rep = scan_report(df)
        assert rep.udf_nodes == 0
        pushed = " ".join(rep.pushed)
        assert "Or(" in pushed and "popden" in pushed
        want = compile_op(q, db).toPandas()
        pd.testing.assert_frame_equal(_canon(got), _canon(want))


class TestPhysicalClaim:
    """The paper's core physical claim: a sketch's selectivity is only
    realizable as I/O skipping when physical design (clustering /
    zone maps) aligns with the sketch attribute. Parquet row-group
    min/max statistics play the zone maps; ``scan_report`` reads the
    rows the scan actually produced."""

    N = 20_000
    SCAN = TableAccess("r", ("a",))
    COUNT = Aggregate(SCAN, (), (AggSpec("count", None, "n"),))

    @pytest.fixture(scope="class")
    def values(self):
        g = np.random.default_rng(0)
        return pd.Series(g.integers(0, 100_000, self.N), name="a")

    @pytest.fixture(scope="class")
    def part(self, values):
        return equi_depth(values, "r", "a", 20)

    @pytest.fixture(scope="class")
    def clustered(self, spark, values, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("pq") / "clustered")
        write_clustered(spark.createDataFrame(values.to_frame()), path, "a")
        return {"r": read_table(spark, path)}

    @pytest.fixture(scope="class")
    def random_order(self, spark, values, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("pq") / "random")
        spark.createDataFrame(values.to_frame()).repartition(8).write.parquet(path)
        return {"r": read_table(spark, path)}

    def _run(self, q, db):
        """(result rows, rows scanned) of ``q``."""
        df = compile_op(q, db)
        return df.collect(), scan_report(df).rows

    def _qp(self, part, frags):
        return apply_sketches(self.COUNT, {"r": ProvenanceSketch(part, frozenset(frags))})

    def test_clustered_skips_proportionally(self, part, clustered):
        _, rows = self._run(self._qp(part, {3}), clustered)
        assert 0 < rows < 0.15 * self.N  # ~1/20 of the data + row-group edges

    def test_random_order_cannot_skip(self, part, random_order):
        _, rows = self._run(self._qp(part, {3}), random_order)
        assert rows > 0.95 * self.N  # every row group overlaps the range

    def test_adjacent_merge_reduces_ranges_not_rows(self, part, clustered):
        frags = {2, 3, 4, 9}
        assert len(part.merged_ranges(frags)) == 2  # {2,3,4} coalesce + {9}
        merged = self._qp(part, frags)
        exact = Or(*(range_condition("a", *part.bounds(f)) for f in sorted(frags)))
        unmerged = Aggregate(Select(self.SCAN, exact), (), self.COUNT.aggs)
        got, rows = self._run(merged, clustered)
        want, rows_unmerged = self._run(unmerged, clustered)
        assert 0 < rows < self.N
        assert rows_unmerged == rows
        assert got == want
