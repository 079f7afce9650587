"""Unit tests for the scalar expression IR (repro.algebra.expr)."""
import datetime as dt

import pandas as pd
import pytest

from repro.algebra.expr import (
    And,
    BinOp,
    Cmp,
    Col,
    Lit,
    Not,
    Or,
    Param,
)

DF = pd.DataFrame({"a": [1, 2, 3, 4], "b": [10.0, 20.0, 30.0, 40.0], "s": list("wxyz")})


class TestSql:
    def test_col(self):
        assert Col("a").to_sql() == "a"

    def test_lit_int(self):
        assert Lit(3).to_sql() == "3"

    def test_lit_str_quoting(self):
        assert Lit("O'Brien").to_sql() == "'O''Brien'"

    def test_lit_date(self):
        assert (
            Lit(dt.datetime(1995, 3, 15)).to_sql()
            == "TIMESTAMP '1995-03-15 00:00:00'"
        )

    def test_lit_none(self):
        assert Lit(None).to_sql() == "NULL"

    def test_lit_bool(self):
        assert Lit(True).to_sql() == "TRUE"

    def test_arith(self):
        e = (Col("a") + Lit(1)) * Col("b")
        assert e.to_sql() == "((a + 1) * b)"

    def test_cmp(self):
        assert Col("a").ge(Lit(2)).to_sql() == "(a >= 2)"

    def test_and_or_not(self):
        e = Or(And(Col("a").gt(Lit(1)), Col("b").lt(Lit(5))), Not(Col("a").eq(Lit(0))))
        assert e.to_sql() == "(((a > 1) AND (b < 5)) OR (NOT (a = 0)))"


class TestEvalPandas:
    def test_col(self):
        assert list(Col("a").eval_pandas(DF)) == [1, 2, 3, 4]

    def test_lit(self):
        assert list(Lit(7).eval_pandas(DF)) == [7] * 4

    @pytest.mark.parametrize(
        "op,expected",
        [("+", [11.0, 22.0, 33.0, 44.0]), ("*", [10.0, 40.0, 90.0, 160.0])],
    )
    def test_arith(self, op, expected):
        assert list(BinOp(op, Col("a"), Col("b")).eval_pandas(DF)) == expected

    @pytest.mark.parametrize(
        "op,expected",
        [
            ("<", [True, False, False, False]),
            ("<=", [True, True, False, False]),
            ("=", [False, True, False, False]),
            (">", [False, False, True, True]),
            ("<>", [True, False, True, True]),
        ],
    )
    def test_cmp_ops(self, op, expected):
        assert list(Cmp(op, Col("a"), Lit(2)).eval_pandas(DF)) == expected

    def test_and_flattens(self):
        e = And(Col("a").gt(Lit(0)), And(Col("a").lt(Lit(3)), Col("b").gt(Lit(0))))
        assert len(e.terms) == 3
        assert list(e.eval_pandas(DF)) == [True, True, False, False]

    def test_or(self):
        e = Or(Col("a").eq(Lit(1)), Col("a").eq(Lit(4)))
        assert list(e.eval_pandas(DF)) == [True, False, False, True]

    def test_not(self):
        assert list(Not(Col("a").gt(Lit(2))).eval_pandas(DF)) == [True, True, False, False]


class TestParams:
    def test_params_collected(self):
        e = And(Col("a").gt(Param("t")), Col("b").lt(Param("u")))
        assert e.params() == {"t", "u"}

    def test_bind(self):
        e = Col("a").gt(Param("t")).bind({"t": 2})
        assert e.to_sql() == "(a > 2)"
        assert e.params() == frozenset()

    def test_partial_bind_keeps_param(self):
        e = And(Col("a").gt(Param("t")), Col("b").lt(Param("u"))).bind({"t": 1})
        assert e.params() == {"u"}

    def test_unbound_param_raises(self):
        with pytest.raises(ValueError):
            Param("t").to_sql()


class TestColumns:
    def test_columns(self):
        e = (Col("a") + Col("b")) * Lit(2)
        assert e.columns() == {"a", "b"}

    def test_bool_columns(self):
        e = Or(Col("a").gt(Lit(0)), Not(Col("s").eq(Lit("x"))))
        assert e.columns() == {"a", "s"}


class TestValidation:
    def test_invalid_cmp_op(self):
        with pytest.raises(ValueError):
            Cmp("!", Col("a"), Lit(1))

    def test_invalid_arith_op(self):
        with pytest.raises(ValueError):
            BinOp("%", Col("a"), Lit(1))


class TestImmutability:
    def test_frozen(self):
        with pytest.raises(Exception):
            Col("a").name = "b"

    def test_equality(self):
        assert Col("a").eq(Lit(1)) == Col("a").eq(Lit(1))
        assert Col("a") != Col("b")
