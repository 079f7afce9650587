"""Scalar expressions for the relational-algebra IR.

Expressions are immutable trees. Each node can

* render itself as SQL (``to_sql``) in one of two dialects: ``duckdb``
  (the default) for the correctness oracle, ``spark`` for the one SQL
  text per query that ``compile_spark.compile_op`` hands to Spark,
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
import math
import operator
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np
import pandas as pd


def _null_safe_eq(l, r):
    return (l == r) | (l.isna() & r.isna())


def _unless_null(op):
    """``op`` as a SQL filter reads it: a comparison with a NULL operand
    is never true (``NULL <> 1`` keeps no row), and it is not evaluated,
    so an all-NULL column need not have the other operand's type."""

    def cmp(l, r):
        known = l.notna() & r.notna()
        out = np.zeros(len(l), dtype=bool)
        if known.any():
            out[known.to_numpy()] = op(l[known], r[known]).to_numpy(dtype=bool)
        return pd.Series(out, index=l.index)

    return cmp


# Op string -> the pandas operator for ``eval_pandas``. ``<=>`` is the
# null-safe equality (SQL ``IS NOT DISTINCT FROM``): NULL matches NULL.
_CMP_OPS = {
    "=": _unless_null(operator.eq),
    "<>": _unless_null(operator.ne),
    "<": _unless_null(operator.lt),
    "<=": _unless_null(operator.le),
    ">": _unless_null(operator.gt),
    ">=": _unless_null(operator.ge),
    "<=>": _null_safe_eq,
}
_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def ident(name: str, dialect: str = "duckdb") -> str:
    """An attribute or relation name; quoted for Spark, so that no
    name can be read as a keyword."""
    return f"`{name}`" if dialect == "spark" else name


def sql_literal(v: Any, dialect: str = "duckdb") -> str:
    """A constant as SQL text that parses back to the same value.

    Spark differs from DuckDB in three rules: a backslash in a string
    is an escape character; an unsuffixed ``0.05`` is a
    ``DECIMAL(2,2)``, so a float gets the double suffix ``D``; and a
    pure date stays a ``DATE``.
    """
    if isinstance(v, np.datetime64):
        v = pd.Timestamp(v)
    elif isinstance(v, np.generic):
        v = v.item()
    if v is None:
        return "NULL"
    if isinstance(v, str):
        if dialect == "spark":
            v = v.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{v}'"
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, _dt.datetime):
        # TIMESTAMP for DuckDB also for dates: it refuses
        # TIMESTAMP_NS-vs-DATE comparisons, and the synthetic columns
        # are pandas datetime64
        ts = pd.Timestamp(v)
        fmt = "%Y-%m-%d %H:%M:%S.%f" if ts.microsecond else "%Y-%m-%d %H:%M:%S"
        return f"TIMESTAMP '{ts.strftime(fmt)}'"
    if isinstance(v, _dt.date):
        if dialect == "spark":
            return f"DATE '{v.isoformat()}'"
        return sql_literal(_dt.datetime(v.year, v.month, v.day))
    if isinstance(v, float):
        if math.isnan(v):
            return "CAST('NaN' AS DOUBLE)"
        if math.isinf(v):
            return f"CAST('{'' if v > 0 else '-'}Infinity' AS DOUBLE)"
        return repr(v) + ("D" if dialect == "spark" else "")
    return repr(v)


@dataclass(frozen=True)
class Expr:
    """Base class for scalar expressions."""

    def to_sql(self, dialect: str = "duckdb") -> str:
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

    def to_sql(self, dialect: str = "duckdb") -> str:
        return ident(self.name, dialect)

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

    def to_sql(self, dialect: str = "duckdb") -> str:
        return sql_literal(self.value, dialect)

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

    def to_sql(self, dialect: str = "duckdb") -> str:
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

    def to_sql(self, dialect: str = "duckdb") -> str:
        return f"({self.left.to_sql(dialect)} {self.op} {self.right.to_sql(dialect)})"

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

    def to_sql(self, dialect: str = "duckdb") -> str:
        op = self.op
        if op == "<=>" and dialect == "duckdb":
            op = "IS NOT DISTINCT FROM"
        return f"({self.left.to_sql(dialect)} {op} {self.right.to_sql(dialect)})"

    def eval_pandas(self, df):
        return _CMP_OPS[self.op](self.left.eval_pandas(df), self.right.eval_pandas(df))

    def columns(self):
        return self.left.columns() | self.right.columns()

    def bind(self, bindings):
        return Cmp(self.op, self.left.bind(bindings), self.right.bind(bindings))


@dataclass(frozen=True)
class IsNull(Expr):
    """``term IS NULL``; pandas reads NaN as NULL too."""

    term: Expr

    def children(self):
        return (self.term,)

    def to_sql(self, dialect: str = "duckdb") -> str:
        return f"({self.term.to_sql(dialect)} IS NULL)"

    def eval_pandas(self, df):
        return self.term.eval_pandas(df).isna()

    def columns(self):
        return self.term.columns()

    def bind(self, bindings):
        return IsNull(self.term.bind(bindings))


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

    def to_sql(self, dialect: str = "duckdb") -> str:
        return "(" + " AND ".join(t.to_sql(dialect) for t in self.terms) + ")"

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

    def to_sql(self, dialect: str = "duckdb") -> str:
        return "(" + " OR ".join(t.to_sql(dialect) for t in self.terms) + ")"

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

    def to_sql(self, dialect: str = "duckdb") -> str:
        return f"(NOT {self.term.to_sql(dialect)})"

    def eval_pandas(self, df):
        return ~self.term.eval_pandas(df)

    def columns(self):
        return self.term.columns()

    def bind(self, bindings):
        return Not(self.term.bind(bindings))


def col(name: str) -> Col:
    return Col(name)


def lit(v: Any) -> Lit:
    return Lit(v)


def between(attr: Expr, lo, hi) -> And:
    """Closed-interval membership ``lo <= attr <= hi`` — the shape of
    the conditions a range-based sketch decodes to (Sec. 8, Eq. 2)."""
    return And(attr.ge(_wrap(lo)), attr.le(_wrap(hi)))


def split_conjuncts(cond: Expr) -> tuple[list[tuple[str, str]], list[Expr]]:
    """The conjuncts of ``cond``: the column-name pairs of those that
    are ``Col = Col``, and every other one."""
    rest: list[Expr] = []
    pairs: list[tuple[str, str]] = []
    for c in cond.terms if isinstance(cond, And) else (cond,):
        if (
            isinstance(c, Cmp)
            and c.op == "="
            and isinstance(c.left, Col)
            and isinstance(c.right, Col)
        ):
            pairs.append((c.left.name, c.right.name))
        else:
            rest.append(c)
    return pairs, rest
