"""IR -> SQL text, the one lowering of the IR.

``to_sql(q)`` renders DuckDB SQL for the correctness oracle
(``repro.oracle.assert_equivalent``); ``to_sql(q, "spark", views)``
renders the Spark SQL text that ``compile_spark.compile_op`` runs, with
each relation read from the temp view named in ``views``. The
translation is a straightforward nesting of derived tables; the
engine's optimizer (DuckDB's or Catalyst) flattens it.

A top-k orders NULLs as Spark does by default, first when ascending
and last when descending, spelled out so that DuckDB agrees.

The dialects differ in literals and quoting (``expr.sql_literal``,
``expr.ident``) and null-safe equality. The array constructs of the
capture plan exist in Spark SQL only: the ``sketch`` aggregate, which
merges key arrays into one sorted distinct array, keeping a NULL key,
and ``capture.ToArray`` / ``capture.EmptyArray``.
"""
from __future__ import annotations

import itertools
from typing import Mapping, Optional

from repro.algebra.expr import ident
from repro.algebra.ops import (
    Aggregate,
    AggSpec,
    CrossProduct,
    Distinct,
    Join,
    Op,
    Project,
    Select,
    TableAccess,
    TopK,
    Union,
)

_SKETCH = "array_sort(array_distinct(flatten(collect_set({}))))"


def _agg(a: AggSpec, dialect: str) -> str:
    if a.func == "count" and a.attr is None:
        fn = "count(*)"
    elif a.func == "sketch":
        fn = _SKETCH.format(ident(a.attr, dialect))
    else:
        fn = f"{a.func}({ident(a.attr, dialect)})"
    return f"{fn} AS {ident(a.alias, dialect)}"


def to_sql(
    q: Op, dialect: str = "duckdb", views: Optional[Mapping[str, str]] = None
) -> str:
    """Render ``q`` as a standalone SQL query. ``views`` maps a relation
    to the name it is read from (default: the relation's own name)."""
    counter = itertools.count()
    views = views or {}

    def alias() -> str:
        return f"t{next(counter)}"

    def names(cols) -> str:
        return ", ".join(ident(c, dialect) for c in cols)

    def render(op: Op) -> str:
        if isinstance(op, TableAccess):
            return (
                f"SELECT {names(op.table_schema)} "
                f"FROM {views.get(op.name, op.name)}"
            )
        if isinstance(op, Select):
            return (
                f"SELECT * FROM ({render(op.child)}) {alias()} "
                f"WHERE {op.cond.to_sql(dialect)}"
            )
        if isinstance(op, Project):
            items = ", ".join(
                f"{e.to_sql(dialect)} AS {ident(a, dialect)}" for e, a in op.items
            )
            return f"SELECT {items} FROM ({render(op.child)}) {alias()}"
        if isinstance(op, Aggregate):
            sel = ", ".join(
                [ident(g, dialect) for g in op.group_by]
                + [_agg(a, dialect) for a in op.aggs]
            )
            grp = f" GROUP BY {names(op.group_by)}" if op.group_by else ""
            return f"SELECT {sel} FROM ({render(op.child)}) {alias()}{grp}"
        if isinstance(op, Join):
            return (
                f"SELECT * FROM ({render(op.left)}) {alias()} "
                f"JOIN ({render(op.right)}) {alias()} "
                f"ON {op.cond.to_sql(dialect)}"
            )
        if isinstance(op, CrossProduct):
            return (
                f"SELECT * FROM ({render(op.left)}) {alias()} "
                f"CROSS JOIN ({render(op.right)}) {alias()}"
            )
        if isinstance(op, Union):
            return (
                f"SELECT {names(op.left.schema())} "
                f"FROM ({render(op.left)}) {alias()} "
                f"UNION ALL "
                f"SELECT {names(op.right.schema())} "
                f"FROM ({render(op.right)}) {alias()}"
            )
        if isinstance(op, Distinct):
            return f"SELECT DISTINCT * FROM ({render(op.child)}) {alias()}"
        if isinstance(op, TopK):
            order = ", ".join(
                f"{ident(c, dialect)} "
                + ("ASC NULLS FIRST" if asc else "DESC NULLS LAST")
                for c, asc in op.order
            )
            return (
                f"SELECT * FROM ({render(op.child)}) {alias()} "
                f"ORDER BY {order} LIMIT {op.k}"
            )
        raise TypeError(f"cannot render {type(op).__name__}")

    return render(q)
