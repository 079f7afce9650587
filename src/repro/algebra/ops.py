"""Logical operators of the bag relational algebra (paper Fig. 2).

Each operator node knows its output ``schema()`` (attribute names, in
order) and the base ``relations()`` it accesses; ``children()``,
``map()``, ``params()`` and ``bind()`` come from ``expr.Node``, whose
children are the operators and expressions in a node's fields.
Attribute names are assumed globally unique across base relations
(paper Sec. 5.2's simplifying assumption); workload schemas use
prefixed names (``l_``, ``o_``, ...) so this holds, and an operator
whose output would repeat a name is rejected at construction.

Rewrites (sketch capture Fig. 6, sketch use Sec. 8) are expressed as
recursive IR -> IR functions in ``repro.core``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.algebra.expr import Cmp, Col, Expr, Node, split_conjuncts

# "sketch" is the BITOR-style merge of provenance-sketch annotations
# (paper Fig. 6 r3/r7); see repro.core.capture.
AGG_FUNCS = {"sum", "count", "avg", "min", "max", "sketch"}


@dataclass(frozen=True)
class Op(Node):
    """Base class for logical operators."""

    def __post_init__(self):
        names = self.schema()
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate output names in {type(self).__name__}: {names}")

    def schema(self) -> tuple[str, ...]:
        raise NotImplementedError

    def relations(self) -> frozenset[str]:
        return frozenset().union(
            *(c.relations() for c in self.children() if isinstance(c, Op))
        )


@dataclass(frozen=True)
class TableAccess(Op):
    """Scan of a named base relation with a fixed schema."""

    name: str
    table_schema: tuple[str, ...]

    def schema(self):
        return self.table_schema

    def relations(self):
        return frozenset({self.name})


@dataclass(frozen=True)
class Select(Op):
    """sigma_theta."""

    child: Op
    cond: Expr

    def schema(self):
        return self.child.schema()


@dataclass(frozen=True)
class Project(Op):
    """Generalized projection Pi_{e1->b1,...}: items are (expr, alias)."""

    child: Op
    items: tuple[tuple[Expr, str], ...]

    def schema(self):
        return tuple(alias for _, alias in self.items)


@dataclass(frozen=True)
class AggSpec:
    """One aggregation function application f(attr) -> alias.

    ``attr`` is None for count(*). ``func`` in {sum,count,avg,min,max}.
    """

    func: str
    attr: Optional[str]
    alias: str

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r}")
        if self.attr is None and self.func != "count":
            raise ValueError(f"{self.func} requires an attribute")


@dataclass(frozen=True)
class Aggregate(Op):
    """gamma_{f(a)->b; G}: group by G, apply each AggSpec."""

    child: Op
    group_by: tuple[str, ...]
    aggs: tuple[AggSpec, ...]

    def schema(self):
        return self.group_by + tuple(a.alias for a in self.aggs)


@dataclass(frozen=True)
class Join(Op):
    """theta-join; the safety rules special-case equi-join conditions."""

    left: Op
    right: Op
    cond: Expr

    def schema(self):
        return self.left.schema() + self.right.schema()

    def split(self) -> tuple[list[tuple[str, str]], list[Expr]]:
        """The (left_attr, right_attr) pairs of the equality conjuncts
        that relate the two inputs, and every other conjunct (the
        residual; a ``Col = Col`` within one input is one of them)."""
        pairs, rest = split_conjuncts(self.cond)
        ls, rs = set(self.left.schema()), set(self.right.schema())
        equi: list[tuple[str, str]] = []
        for a, b in pairs:
            if a in ls and b in rs:
                equi.append((a, b))
            elif b in ls and a in rs:
                equi.append((b, a))
            else:
                rest.append(Cmp("=", Col(a), Col(b)))
        return equi, rest


@dataclass(frozen=True)
class CrossProduct(Op):
    left: Op
    right: Op

    def schema(self):
        return self.left.schema() + self.right.schema()


@dataclass(frozen=True)
class Union(Op):
    """Bag union; schemas must agree positionally (left names win)."""

    left: Op
    right: Op

    def schema(self):
        return self.left.schema()


@dataclass(frozen=True)
class Distinct(Op):
    """delta — duplicate elimination."""

    child: Op

    def schema(self):
        return self.child.schema()


@dataclass(frozen=True)
class TopK(Op):
    """tau_{O,C}: the C smallest tuples under the order spec.

    ``order`` is a tuple of (attribute, ascending) pairs.
    """

    child: Op
    order: tuple[tuple[str, bool], ...]
    k: int

    def schema(self):
        return self.child.schema()


def replace_tables(q: Op, repl: Mapping[str, Op]) -> Op:
    """Replace each TableAccess whose name is in ``repl`` — the shape of
    both the capture (INIT) and use (Q[P]) instrumentations."""
    if isinstance(q, TableAccess):
        return repl.get(q.name, q)
    return q.map(lambda c: replace_tables(c, repl) if isinstance(c, Op) else c)
