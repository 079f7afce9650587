"""Scalar expressions for the relational-algebra IR.

Expressions are immutable trees. Each node can

* render itself as SQL (``to_sql``) for the DuckDB oracle,
* compile to a PySpark ``Column`` (``to_spark``),
* evaluate over a pandas DataFrame (``eval_pandas``) for the reference
  interpreter,
* report referenced columns (``columns``) and parameters (``params``),
* substitute parameter bindings (``bind``) — this is how a
  parameterized query template (Sec. 6 of the paper) is instantiated.

Comparison/boolean nodes are also the *atoms* consumed by the safety
and reuse checkers (``repro.solver``).
"""
from __future__ import annotations

import datetime as _dt
import operator
from dataclasses import dataclass, field
from typing import Any, Mapping

import pandas as pd

# Op string -> the Python operator; Spark Columns and pandas Series both
# overload these, so one table serves ``to_spark`` and ``eval_pandas``.
_CMP_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _sql_literal(v: Any) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, (_dt.date, _dt.datetime, pd.Timestamp)):
        # TIMESTAMP, not DATE: DuckDB refuses TIMESTAMP_NS-vs-DATE
        # comparisons, and the synthetic columns are pandas datetime64
        ts = pd.Timestamp(v)
        return f"TIMESTAMP '{ts.strftime('%Y-%m-%d %H:%M:%S')}'"
    if v is None:
        return "NULL"
    return repr(v)


@dataclass(frozen=True)
class Expr:
    """Base class for scalar expressions."""

    def to_sql(self) -> str:
        raise NotImplementedError

    def to_spark(self):
        raise NotImplementedError

    def eval_pandas(self, df: pd.DataFrame):
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        raise NotImplementedError

    def params(self) -> frozenset[str]:
        return frozenset().union(
            *(c.params() for c in self.children()), frozenset()
        )

    def children(self) -> tuple["Expr", ...]:
        return ()

    def bind(self, bindings: Mapping[str, Any]) -> "Expr":
        """Replace ``Param`` nodes with literals from ``bindings``."""
        return self

    # sugar -----------------------------------------------------------
    def __add__(self, o):
        return BinOp("+", self, _wrap(o))

    def __sub__(self, o):
        return BinOp("-", self, _wrap(o))

    def __mul__(self, o):
        return BinOp("*", self, _wrap(o))

    def __truediv__(self, o):
        return BinOp("/", self, _wrap(o))

    def eq(self, o):
        return Cmp("=", self, _wrap(o))

    def ne(self, o):
        return Cmp("<>", self, _wrap(o))

    def lt(self, o):
        return Cmp("<", self, _wrap(o))

    def le(self, o):
        return Cmp("<=", self, _wrap(o))

    def gt(self, o):
        return Cmp(">", self, _wrap(o))

    def ge(self, o):
        return Cmp(">=", self, _wrap(o))


def _wrap(v) -> Expr:
    return v if isinstance(v, Expr) else Lit(v)


@dataclass(frozen=True)
class Col(Expr):
    """Reference to an attribute by name (names are globally unique,
    matching the paper's simplifying assumption in Sec. 5.2)."""

    name: str

    def to_sql(self) -> str:
        return self.name

    def to_spark(self):
        from pyspark.sql import functions as F

        return F.col(self.name)

    def eval_pandas(self, df: pd.DataFrame):
        return df[self.name]

    def columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def bind(self, bindings):
        return self


@dataclass(frozen=True)
class Lit(Expr):
    """A constant."""

    value: Any

    def to_sql(self) -> str:
        return _sql_literal(self.value)

    def to_spark(self):
        from pyspark.sql import functions as F

        return F.lit(self.value)

    def eval_pandas(self, df: pd.DataFrame):
        return pd.Series([self.value] * len(df), index=df.index)

    def columns(self) -> frozenset[str]:
        return frozenset()

    def bind(self, bindings):
        return self


@dataclass(frozen=True)
class Param(Expr):
    """A query parameter ``$name`` (Sec. 6). Must be bound before the
    expression can be compiled or evaluated."""

    name: str

    def to_sql(self) -> str:
        raise ValueError(f"unbound parameter ${self.name}")

    def to_spark(self):
        raise ValueError(f"unbound parameter ${self.name}")

    def eval_pandas(self, df: pd.DataFrame):
        raise ValueError(f"unbound parameter ${self.name}")

    def columns(self) -> frozenset[str]:
        return frozenset()

    def params(self) -> frozenset[str]:
        return frozenset({self.name})

    def bind(self, bindings):
        if self.name in bindings:
            return Lit(bindings[self.name])
        return self


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic: ``+ - * /``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _ARITH_OPS:
            raise ValueError(f"bad arithmetic op {self.op!r}")

    def children(self):
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def to_spark(self):
        return _ARITH_OPS[self.op](self.left.to_spark(), self.right.to_spark())

    def eval_pandas(self, df):
        return _ARITH_OPS[self.op](self.left.eval_pandas(df), self.right.eval_pandas(df))

    def columns(self):
        return self.left.columns() | self.right.columns()

    def bind(self, bindings):
        return BinOp(self.op, self.left.bind(bindings), self.right.bind(bindings))


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison atom — the unit the safety/reuse solver reasons over."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise ValueError(f"bad comparison op {self.op!r}")

    def children(self):
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def to_spark(self):
        return _CMP_OPS[self.op](self.left.to_spark(), self.right.to_spark())

    def eval_pandas(self, df):
        return _CMP_OPS[self.op](self.left.eval_pandas(df), self.right.eval_pandas(df))

    def columns(self):
        return self.left.columns() | self.right.columns()

    def bind(self, bindings):
        return Cmp(self.op, self.left.bind(bindings), self.right.bind(bindings))


@dataclass(frozen=True)
class And(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, *terms: Expr):
        flat: list[Expr] = []
        for t in terms:
            if isinstance(t, And):
                flat.extend(t.terms)
            else:
                flat.append(t)
        object.__setattr__(self, "terms", tuple(flat))

    def children(self):
        return self.terms

    def to_sql(self) -> str:
        return "(" + " AND ".join(t.to_sql() for t in self.terms) + ")"

    def to_spark(self):
        c = self.terms[0].to_spark()
        for t in self.terms[1:]:
            c = c & t.to_spark()
        return c

    def eval_pandas(self, df):
        s = self.terms[0].eval_pandas(df)
        for t in self.terms[1:]:
            s = s & t.eval_pandas(df)
        return s

    def columns(self):
        return frozenset().union(*(t.columns() for t in self.terms))

    def bind(self, bindings):
        return And(*(t.bind(bindings) for t in self.terms))


@dataclass(frozen=True)
class Or(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, *terms: Expr):
        flat: list[Expr] = []
        for t in terms:
            if isinstance(t, Or):
                flat.extend(t.terms)
            else:
                flat.append(t)
        object.__setattr__(self, "terms", tuple(flat))

    def children(self):
        return self.terms

    def to_sql(self) -> str:
        return "(" + " OR ".join(t.to_sql() for t in self.terms) + ")"

    def to_spark(self):
        c = self.terms[0].to_spark()
        for t in self.terms[1:]:
            c = c | t.to_spark()
        return c

    def eval_pandas(self, df):
        s = self.terms[0].eval_pandas(df)
        for t in self.terms[1:]:
            s = s | t.eval_pandas(df)
        return s

    def columns(self):
        return frozenset().union(*(t.columns() for t in self.terms))

    def bind(self, bindings):
        return Or(*(t.bind(bindings) for t in self.terms))


@dataclass(frozen=True)
class Not(Expr):
    term: Expr

    def children(self):
        return (self.term,)

    def to_sql(self) -> str:
        return f"(NOT {self.term.to_sql()})"

    def to_spark(self):
        return ~self.term.to_spark()

    def eval_pandas(self, df):
        return ~self.term.eval_pandas(df)

    def columns(self):
        return self.term.columns()

    def bind(self, bindings):
        return Not(self.term.bind(bindings))


@dataclass(frozen=True)
class FragmentId(Expr):
    """Maps an attribute value to its fragment index in a range
    partition — the per-tuple INIT step of Sec. 7.1, kept for the
    Fig. 12a micro-benchmark (capture itself maps keys on the driver).

    ``method`` selects the paper's two implementations: ``"case"``
    (linear CASE chain) or ``"bsearch"`` (binary search over range
    boundaries, the Sec. 7.3 optimization). Both compile to the same
    SQL for the oracle.
    """

    attr: Expr
    boundaries: tuple  # upper bounds of fragments 0..n-2 ("right-open" cuts)
    method: str = "bsearch"

    def children(self):
        return (self.attr,)

    def n_fragments(self) -> int:
        return len(self.boundaries) + 1

    def to_sql(self) -> str:
        a = self.attr.to_sql()
        cases = " ".join(
            f"WHEN {a} <= {_sql_literal(b)} THEN {i}"
            for i, b in enumerate(self.boundaries)
        )
        return f"(CASE {cases} ELSE {len(self.boundaries)} END)"

    def to_spark(self):
        from pyspark.sql import functions as F

        a = self.attr.to_spark()
        if self.method == "case":
            expr = None
            for i, b in enumerate(self.boundaries):
                cond = a <= F.lit(b)
                expr = F.when(cond, i) if expr is None else expr.when(cond, i)
            if expr is None:
                return F.lit(0)
            return expr.otherwise(len(self.boundaries)).cast("int")
        # binary search: numpy searchsorted inside a vectorized pandas UDF
        import numpy as np
        from pyspark.sql.functions import pandas_udf

        bnds = np.asarray(self.boundaries)

        @pandas_udf("int")
        def _frag(s: pd.Series) -> pd.Series:
            return pd.Series(
                np.searchsorted(bnds, s.to_numpy(), side="left").astype("int32"),
                index=s.index,
            )

        return _frag(a)

    def eval_pandas(self, df):
        import numpy as np

        vals = self.attr.eval_pandas(df)
        bnds = np.asarray(self.boundaries)
        return pd.Series(
            np.searchsorted(bnds, vals.to_numpy(), side="left").astype("int64"),
            index=vals.index,
        )

    def columns(self):
        return self.attr.columns()

    def bind(self, bindings):
        return self


def col(name: str) -> Col:
    return Col(name)


def lit(v: Any) -> Lit:
    return Lit(v)


def between(attr: Expr, lo, hi) -> And:
    """Closed-interval membership ``lo <= attr <= hi`` — the shape of
    the conditions a range-based sketch decodes to (Sec. 8, Eq. 2)."""
    return And(attr.ge(_wrap(lo)), attr.le(_wrap(hi)))
