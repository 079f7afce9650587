"""IR -> Spark compilation, checked operator-by-operator against the
DuckDB oracle (repro.oracle.assert_equivalent)."""
import datetime as dt

import numpy as np
import pandas as pd
import pytest

from repro.algebra.compile_spark import compile_op
from repro.algebra.expr import And, Cmp, Col, IsNull, Lit, Or
from repro.algebra.interp import result_frame
from repro.algebra.ops import (
    Aggregate,
    AggSpec,
    CrossProduct,
    Distinct,
    Join,
    Project,
    Select,
    TableAccess,
    TopK,
    Union,
)
from repro.algebra.to_sql import to_sql
from repro.oracle import _canon, assert_equivalent

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


@pytest.fixture(scope="module")
def db(spark):
    return {
        "cities": spark.createDataFrame(CITIES),
        "states": spark.createDataFrame(STATES),
    }


def check(q, db, **pdb):
    tables = pdb or {"cities": CITIES, "states": STATES}
    assert_equivalent(compile_op(q, db), to_sql(q), **tables)


class TestOperators:
    def test_table_access(self, db):
        check(SCAN, db)

    def test_select(self, db):
        check(Select(SCAN, Col("popden").gt(Lit(3000))), db)

    def test_select_disjunction(self, db):
        check(Select(SCAN, Or(Col("state").eq(Lit("CA")), Col("popden").lt(Lit(2500)))), db)

    def test_project_exprs(self, db):
        check(
            Project(SCAN, ((Col("popden") * Lit(2) + Lit(1), "p"), (Col("state"), "state"))),
            db,
        )

    def test_aggregate_grouped(self, db):
        check(
            Aggregate(
                SCAN,
                ("state",),
                (
                    AggSpec("sum", "popden", "s"),
                    AggSpec("avg", "popden", "m"),
                    AggSpec("min", "popden", "lo"),
                    AggSpec("max", "popden", "hi"),
                    AggSpec("count", None, "n"),
                ),
            ),
            db,
        )

    def test_aggregate_global(self, db):
        check(Aggregate(SCAN, (), (AggSpec("sum", "popden", "s"), AggSpec("count", None, "n"))), db)

    def test_join(self, db):
        check(Join(SCAN, SSCAN, Col("state").eq(Col("st"))), db)

    def test_join_residual_condition(self, db):
        check(
            Join(SCAN, SSCAN, And(Col("state").eq(Col("st")), Col("popden").gt(Lit(2100)))),
            db,
        )

    def test_cross_product(self, db):
        check(CrossProduct(Select(SCAN, Col("state").eq(Lit("CA"))), SSCAN), db)

    def test_union_bag_semantics(self, db):
        check(
            Union(
                Select(SCAN, Col("state").eq(Lit("CA"))),
                Select(SCAN, Col("popden").gt(Lit(4000))),
            ),
            db,
        )

    def test_distinct(self, db):
        check(Distinct(Project(SCAN, ((Col("state"), "state"),))), db)

    def test_topk(self, db):
        check(TopK(SCAN, (("popden", False), ("city", True)), 3), db)

    def test_nested_having(self, db):
        inner = Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),))
        check(Aggregate(Select(inner, Col("n").gt(Lit(1))), (), (AggSpec("count", None, "k"),)), db)

    def test_topk_over_join_agg(self, db):
        j = Join(SCAN, SSCAN, Col("state").eq(Col("st")))
        agg = Aggregate(j, ("region",), (AggSpec("sum", "popden", "tot"),))
        check(TopK(agg, (("tot", False), ("region", True)), 2), db)


LITS = pd.DataFrame(
    {
        "s": ["it's", "a\\b", "plain", None],
        "x": [0.05, 1.5, float("inf"), float("-inf")],
        "ts": pd.to_datetime(
            ["2020-01-01 00:00:00", "2020-01-01 00:00:00.000001",
             "2020-01-01 00:00:00.5", "2020-01-02"],
            format="ISO8601",
        ),
        "n": [1, 2, 3, 4],
    }
)
LSCAN = TableAccess("lits", ("s", "x", "ts", "n"))


class TestSparkLiterals:
    """Each rule of the Spark dialect (``expr.sql_literal``), checked
    as ``compile_op`` against the pandas interpreter."""

    @pytest.fixture(scope="class")
    def ldb(self, spark):
        rows = [
            (s, x, t.to_pydatetime(), n)
            for s, x, t, n in LITS.itertuples(index=False)
        ]
        return {"lits": spark.createDataFrame(rows, "s string, x double, ts timestamp, n long")}

    def check(self, q, ldb):
        got = compile_op(q, ldb).toPandas()
        want = result_frame(q, {"lits": LITS})
        assert len(got) == len(want)
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        return got

    @pytest.mark.parametrize("v", ["it's", "a\\b"])
    def test_quote_and_backslash(self, ldb, v):
        # Spark reads a backslash as an escape: 'a\\b' is the text a\b
        got = self.check(Select(LSCAN, Col("s").eq(Lit(v))), ldb)
        assert list(got["s"]) == [v]
        got = self.check(Project(Select(LSCAN, Col("n").eq(Lit(1))), ((Lit(v), "v"),)), ldb)
        assert list(got["v"]) == [v]

    def test_float_is_double(self, ldb):
        # an unsuffixed 0.05 would be DECIMAL(2,2)
        q = Project(Select(LSCAN, Col("x").eq(Lit(0.05))), ((Lit(0.05), "y"), (Col("n"), "n")))
        assert compile_op(q, ldb).dtypes == [("y", "double"), ("n", "bigint")]
        assert list(self.check(q, ldb)["n"]) == [1]

    @pytest.mark.parametrize("v", [float("inf"), float("-inf")])
    def test_infinity(self, ldb, v):
        assert len(self.check(Select(LSCAN, Col("x").eq(Lit(v))), ldb)) == 1

    def test_nan(self, ldb):
        got = self.check(Project(LSCAN, ((Lit(float("nan")), "v"),)), ldb)
        assert got["v"].isna().all()

    def test_timestamp_microseconds(self, ldb):
        cut = pd.Timestamp("2020-01-01 00:00:00.000001")
        assert len(self.check(Select(LSCAN, Col("ts").le(Lit(cut))), ldb)) == 2
        assert len(self.check(Select(LSCAN, Col("ts").le(Lit(cut.to_pydatetime()))), ldb)) == 2

    def test_date(self, ldb):
        assert len(self.check(Select(LSCAN, Col("ts").lt(Lit(dt.date(2020, 1, 2)))), ldb)) == 3

    @pytest.mark.parametrize(
        "v,c",
        [
            (np.int64(2), "n"),
            (np.float64(1.5), "x"),
            (np.datetime64("2020-01-01T00:00:00.500"), "ts"),
            (np.str_("plain"), "s"),
        ],
        ids=["int64", "float64", "datetime64", "str_"],
    )
    def test_numpy_scalars(self, ldb, v, c):
        assert len(self.check(Select(LSCAN, Col(c).eq(Lit(v))), ldb)) == 1

    def test_null(self, ldb):
        got = self.check(Project(LSCAN, ((Lit(None), "v"), (Col("n"), "n"))), ldb)
        assert got["v"].isna().all()
        assert len(self.check(Select(LSCAN, IsNull(Col("s"))), ldb)) == 1
        # = NULL matches nothing; the null-safe <=> matches the NULL
        assert len(self.check(Select(LSCAN, Col("s").eq(Lit(None))), ldb)) == 0
        assert len(self.check(Select(LSCAN, Cmp("<=>", Col("s"), Lit(None))), ldb)) == 1
