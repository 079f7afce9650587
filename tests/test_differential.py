"""Differential check of the compiled query against the pandas
interpreter: random σ / γ (with HAVING) / τ / δ plans over small tables
with NULLs and duplicate keys. Each plan runs three ways, and all three
must return the same multiset:

* ``compile_op`` over a cached DataFrame (its view holds the
  ``InMemoryRelation``);
* ``compile_op`` over an uncached copy of the same rows;
* ``interp.result_frame`` over the rows as pandas.
"""
from collections import Counter

import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.compile_spark import compile_op
from repro.algebra.expr import And, Cmp, Col, IsNull, Lit, Or
from repro.algebra.interp import result_frame
from repro.algebra.ops import Aggregate, AggSpec, Distinct, Select, TableAccess, TopK
from tests.test_use_spark import _leaves

SCHEMA = "k long, g string, v double"
T = TableAccess("t", ("k", "g", "v"))
STRINGS = ("a", "b", "c")

# few distinct values, so keys repeat; v holds whole numbers so sums are exact
ROWS = st.lists(
    st.tuples(
        st.none() | st.integers(0, 3),
        st.none() | st.sampled_from(STRINGS),
        st.none() | st.integers(-2, 2).map(float),
    ),
    max_size=12,
)


def _literal(draw, kind: str) -> Lit:
    if kind == "str":
        return Lit(draw(st.sampled_from(STRINGS)))
    return Lit(draw(st.integers(-2, 4)))


def _condition(draw, types: dict[str, str]):
    def atom():
        c = draw(st.sampled_from(sorted(types)))
        if draw(st.integers(0, 4)) == 0:
            return IsNull(Col(c))
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return Cmp(op, Col(c), _literal(draw, types[c]))

    terms = [atom() for _ in range(draw(st.integers(1, 2)))]
    if len(terms) == 1:
        return terms[0]
    return draw(st.sampled_from([And, Or]))(*terms)


@st.composite
def plans(draw):
    """A chain of one to three σ / γ / τ / δ over ``T``."""
    q, types = T, {"k": "num", "g": "str", "v": "num"}
    for level in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["select", "aggregate", "topk", "distinct"]))
        if kind == "select":
            q = Select(q, _condition(draw, types))
        elif kind == "aggregate":
            cols = sorted(types)
            group = tuple(c for c in cols if draw(st.booleans()))
            nums = [c for c in cols if types[c] == "num"]
            # aliases are fresh per level, so none repeats a grouping column
            aggs = [AggSpec("count", None, f"n{level}")]
            for i in range(draw(st.integers(0, 2))):
                func = draw(st.sampled_from(["count", "sum", "avg", "min", "max"]))
                pool = cols if func in ("count", "min", "max") else nums
                if pool:
                    aggs.append(AggSpec(func, draw(st.sampled_from(pool)), f"a{level}{i}"))
            q = Aggregate(q, group, tuple(aggs))
            types = {**{c: types[c] for c in group}, **{
                a.alias: types[a.attr] if a.func in ("min", "max") else "num" for a in aggs
            }}
            if draw(st.booleans()):  # HAVING
                q = Select(q, _condition(draw, types))
        elif kind == "topk":
            # every column in the order: the k rows are one multiset
            order = tuple((c, draw(st.booleans())) for c in q.schema())
            q = TopK(q, order, draw(st.integers(1, 5)))
        else:
            q = Distinct(q)
    return q


def _bag(pdf: pd.DataFrame) -> Counter:
    """The rows of ``pdf`` as a multiset, columns by name, NULL/NaN as
    None and numbers as rounded floats."""

    def norm(v):
        if pd.isna(v):
            return None
        return v if isinstance(v, str) else round(float(v), 6)

    cols = sorted(pdf.columns)
    return Counter(tuple(norm(v) for v in row) for row in pdf[cols].itertuples(index=False))


@given(ROWS, plans())
@settings(max_examples=30, deadline=None)
def test_cached_uncached_and_interpreter_agree(spark, rows, q):
    uncached = spark.createDataFrame(rows, SCHEMA)
    plain = compile_op(q, {"t": uncached})
    assert "InMemoryRelation" not in _leaves(plain)
    want = _bag(result_frame(q, {"t": uncached.toPandas()}))
    assert _bag(plain.toPandas()) == want, q
    cached = spark.createDataFrame(rows, SCHEMA)
    cached.cache().count()
    try:
        got = compile_op(q, {"t": cached})
        assert _leaves(got) == {"InMemoryRelation"}
        assert _bag(got.toPandas()) == want, q
    finally:
        cached.unpersist()
