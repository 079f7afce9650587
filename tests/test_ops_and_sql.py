"""Operator IR: schema inference, params, SQL generation vs DuckDB."""
import duckdb
import pandas as pd
import pytest

from repro.algebra.expr import And, Col, Lit, Param
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
    replace_tables,
)
from repro.algebra.to_sql import to_sql

R = TableAccess("r", ("a", "b"))
S = TableAccess("s", ("c", "d"))

RDF = pd.DataFrame({"a": [1, 2, 3, 2], "b": [10.0, 20.0, 30.0, 40.0]})
SDF = pd.DataFrame({"c": [1, 2], "d": ["x", "y"]})


def run_sql(q, **tables):
    con = duckdb.connect()
    try:
        for n, t in tables.items():
            con.register(n, t)
        return con.execute(to_sql(q)).fetchdf()
    finally:
        con.close()


class TestSchema:
    def test_table(self):
        assert R.schema() == ("a", "b")

    def test_select_keeps_schema(self):
        assert Select(R, Col("a").gt(Lit(1))).schema() == ("a", "b")

    def test_project(self):
        p = Project(R, ((Col("a"), "x"), (Col("a") + Col("b"), "y")))
        assert p.schema() == ("x", "y")

    def test_aggregate(self):
        g = Aggregate(R, ("a",), (AggSpec("sum", "b", "sb"), AggSpec("count", None, "n")))
        assert g.schema() == ("a", "sb", "n")

    def test_join_concat(self):
        assert Join(R, S, Col("a").eq(Col("c"))).schema() == ("a", "b", "c", "d")

    def test_cross(self):
        assert CrossProduct(R, S).schema() == ("a", "b", "c", "d")

    def test_union_left_names(self):
        assert Union(R, Project(S, ((Col("c"), "c"), (Col("c"), "c2")))).schema() == ("a", "b")

    def test_topk_distinct(self):
        assert TopK(R, (("a", True),), 2).schema() == ("a", "b")
        assert Distinct(R).schema() == ("a", "b")

    def test_relations(self):
        q = Join(R, S, Col("a").eq(Col("c")))
        assert q.relations() == {"r", "s"}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Aggregate(R, ("a",), (AggSpec("count", None, "a"),)),
            lambda: Project(R, ((Col("a"), "x"), (Col("b"), "x"))),
            lambda: Join(R, R, Col("a").eq(Col("a"))),
        ],
        ids=["aggregate", "project", "join"],
    )
    def test_duplicate_output_names_rejected(self, build):
        # Spark analysis fails on such a plan with AMBIGUOUS_REFERENCE
        with pytest.raises(ValueError, match="duplicate output names"):
            build()

    def test_agg_validation(self):
        with pytest.raises(ValueError):
            AggSpec("median", "a", "m")
        with pytest.raises(ValueError):
            AggSpec("sum", None, "s")


class TestParams:
    def test_collect_and_bind(self):
        q = Select(R, Col("a").gt(Param("t")))
        assert q.params() == {"t"}
        bound = q.bind({"t": 1})
        assert bound.params() == frozenset()
        assert bound.cond.to_sql() == "(a > 1)"


class TestEquiPairs:
    def test_simple(self):
        assert Join(R, S, Col("a").eq(Col("c"))).split() == ([("a", "c")], [])

    def test_flipped_sides(self):
        assert Join(R, S, Col("c").eq(Col("a"))).split() == ([("a", "c")], [])

    def test_conjunction(self):
        j = Join(R, S, And(Col("a").eq(Col("c")), Col("b").gt(Col("d"))))
        assert j.split() == ([("a", "c")], [Col("b").gt(Col("d"))])

    def test_same_side_equality_is_residual(self):
        j = Join(R, S, And(Col("a").eq(Col("c")), Col("a").eq(Col("b"))))
        assert j.split() == ([("a", "c")], [Col("a").eq(Col("b"))])


class TestSqlAgainstDuck:
    def test_select(self):
        out = run_sql(Select(R, Col("a").ge(Lit(2))), r=RDF)
        assert sorted(out["a"]) == [2, 2, 3]

    def test_project_expr(self):
        out = run_sql(Project(R, ((Col("a") * Lit(2), "a2"),)), r=RDF)
        assert sorted(out["a2"]) == [2, 4, 4, 6]

    def test_aggregate_group(self):
        out = run_sql(
            Aggregate(R, ("a",), (AggSpec("sum", "b", "sb"), AggSpec("count", None, "n"))),
            r=RDF,
        ).sort_values("a")
        assert list(out["sb"]) == [10.0, 60.0, 30.0]
        assert list(out["n"]) == [1, 2, 1]

    def test_aggregate_global(self):
        out = run_sql(Aggregate(R, (), (AggSpec("max", "b", "mb"),)), r=RDF)
        assert out["mb"][0] == 40.0

    def test_join(self):
        out = run_sql(Join(R, S, Col("a").eq(Col("c"))), r=RDF, s=SDF)
        assert len(out) == 3  # a=1 matches once, a=2 twice

    def test_cross(self):
        out = run_sql(CrossProduct(R, S), r=RDF, s=SDF)
        assert len(out) == 8

    def test_union_all_bag(self):
        out = run_sql(Union(R, R), r=RDF)
        assert len(out) == 8

    def test_distinct(self):
        out = run_sql(Distinct(Project(R, ((Col("a"), "a"),))), r=RDF)
        assert sorted(out["a"]) == [1, 2, 3]

    def test_topk(self):
        out = run_sql(TopK(R, (("b", False),), 2), r=RDF)
        assert list(out["b"]) == [40.0, 30.0]

    def test_nested_query(self):
        inner = Aggregate(R, ("a",), (AggSpec("count", None, "n"),))
        q = TopK(Select(inner, Col("n").ge(Lit(1))), (("n", False), ("a", True)), 2)
        out = run_sql(q, r=RDF)
        assert list(out["a"]) == [2, 1]


class TestReplaceTables:
    def test_replaces_scan(self):
        filtered = Select(R, Col("a").gt(Lit(1)))
        q = Aggregate(R, (), (AggSpec("count", None, "n"),))
        q2 = replace_tables(q, {"r": filtered})
        out = run_sql(q2, r=RDF)
        assert out["n"][0] == 3

    def test_replace_inside_join(self):
        q = Join(R, S, Col("a").eq(Col("c")))
        q2 = replace_tables(q, {"s": Select(S, Col("c").eq(Lit(2)))})
        out = run_sql(q2, r=RDF, s=SDF)
        assert len(out) == 2
