"""Relational-algebra substrate.

The paper (Sec. 3.1, Fig. 2) defines a bag relational algebra with
selection, projection, aggregation, top-k, join, cross product, union,
and duplicate elimination. PBDS instruments queries at this level, so
the reproduction needs its own logical IR:

* ``expr``           — scalar expressions (columns, literals, params,
                        arithmetic, comparisons, boolean connectives)
* ``ops``            — operators with schema inference
* ``to_sql``         — IR -> SQL text, the one lowering: DuckDB dialect
                        for the oracle, Spark dialect for execution
* ``compile_spark``  — IR -> Spark DataFrame: runs the Spark SQL text
                        over temp views (Catalyst optimizes it)
* ``interp``         — pandas reference evaluator with exact lineage,
                        the ground truth for provenance-sketch capture
"""
from repro.algebra.expr import (  # noqa: F401
    And,
    BinOp,
    Cmp,
    Col,
    Expr,
    IsNull,
    Lit,
    Not,
    Or,
    Param,
)
from repro.algebra.ops import (  # noqa: F401
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
