"""Logical operators of the bag relational algebra (paper Fig. 2).

Each operator node knows its output ``schema()`` (attribute names, in
order), its ``children()``, the base ``relations()`` it accesses, and
how to ``bind()`` parameters. Attribute names are assumed globally
unique across base relations (paper Sec. 5.2's simplifying assumption);
workload schemas use prefixed names (``l_``, ``o_``, ...) so this holds.

Rewrites (sketch capture Fig. 6, sketch use Sec. 8) are expressed as
recursive IR -> IR functions in ``repro.core``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.algebra.expr import Cmp, Col, Expr, split_conjuncts

# "sketch" is the BITOR-style merge of provenance-sketch annotations
# (paper Fig. 6 r3/r7); see repro.core.capture.
AGG_FUNCS = {"sum", "count", "avg", "min", "max", "sketch"}


@dataclass(frozen=True)
class Op:
    """Base class for logical operators."""

    def schema(self) -> tuple[str, ...]:
        raise NotImplementedError

    def children(self) -> tuple["Op", ...]:
        return ()

    def relations(self) -> frozenset[str]:
        return frozenset().union(
            *(c.relations() for c in self.children()), frozenset()
        )

    def params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for c in self.children():
            out |= c.params()
        return out

    def bind(self, bindings: Mapping[str, Any]) -> "Op":
        raise NotImplementedError

    # fluent builders -------------------------------------------------
    def select(self, cond: Expr) -> "Select":
        return Select(self, cond)

    def project(self, *items) -> "Project":
        norm = tuple(
            (Col(i), i) if isinstance(i, str) else (i[0], i[1]) for i in items
        )
        return Project(self, norm)

    def aggregate(self, group_by, aggs) -> "Aggregate":
        return Aggregate(self, tuple(group_by), tuple(aggs))

    def distinct(self) -> "Distinct":
        return Distinct(self)

    def join(self, other: "Op", cond: Expr) -> "Join":
        return Join(self, other, cond)


@dataclass(frozen=True)
class TableAccess(Op):
    """Scan of a named base relation with a fixed schema."""

    name: str
    table_schema: tuple[str, ...]

    def schema(self):
        return self.table_schema

    def relations(self):
        return frozenset({self.name})

    def bind(self, bindings):
        return self


@dataclass(frozen=True)
class Select(Op):
    """sigma_theta."""

    child: Op
    cond: Expr

    def schema(self):
        return self.child.schema()

    def children(self):
        return (self.child,)

    def params(self):
        return self.child.params() | self.cond.params()

    def bind(self, bindings):
        return Select(self.child.bind(bindings), self.cond.bind(bindings))


@dataclass(frozen=True)
class Project(Op):
    """Generalized projection Pi_{e1->b1,...}: items are (expr, alias)."""

    child: Op
    items: tuple[tuple[Expr, str], ...]

    def schema(self):
        return tuple(alias for _, alias in self.items)

    def children(self):
        return (self.child,)

    def params(self):
        p = self.child.params()
        for e, _ in self.items:
            p |= e.params()
        return p

    def bind(self, bindings):
        return Project(
            self.child.bind(bindings),
            tuple((e.bind(bindings), a) for e, a in self.items),
        )


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

    def children(self):
        return (self.child,)

    def bind(self, bindings):
        return Aggregate(self.child.bind(bindings), self.group_by, self.aggs)


@dataclass(frozen=True)
class Join(Op):
    """theta-join; the safety rules special-case equi-join conditions."""

    left: Op
    right: Op
    cond: Expr

    def schema(self):
        return self.left.schema() + self.right.schema()

    def children(self):
        return (self.left, self.right)

    def params(self):
        return self.left.params() | self.right.params() | self.cond.params()

    def bind(self, bindings):
        return Join(
            self.left.bind(bindings),
            self.right.bind(bindings),
            self.cond.bind(bindings),
        )

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

    def children(self):
        return (self.left, self.right)

    def bind(self, bindings):
        return CrossProduct(self.left.bind(bindings), self.right.bind(bindings))


@dataclass(frozen=True)
class Union(Op):
    """Bag union; schemas must agree positionally (left names win)."""

    left: Op
    right: Op

    def schema(self):
        return self.left.schema()

    def children(self):
        return (self.left, self.right)

    def bind(self, bindings):
        return Union(self.left.bind(bindings), self.right.bind(bindings))


@dataclass(frozen=True)
class Distinct(Op):
    """delta — duplicate elimination."""

    child: Op

    def schema(self):
        return self.child.schema()

    def children(self):
        return (self.child,)

    def bind(self, bindings):
        return Distinct(self.child.bind(bindings))


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

    def children(self):
        return (self.child,)

    def bind(self, bindings):
        return TopK(self.child.bind(bindings), self.order, self.k)


def replace_tables(q: Op, repl: Mapping[str, Op]) -> Op:
    """Replace each TableAccess whose name is in ``repl`` — the shape of
    both the capture (INIT) and use (Q[P]) instrumentations."""
    if isinstance(q, TableAccess):
        return repl.get(q.name, q)
    if isinstance(q, Select):
        return Select(replace_tables(q.child, repl), q.cond)
    if isinstance(q, Project):
        return Project(replace_tables(q.child, repl), q.items)
    if isinstance(q, Aggregate):
        return Aggregate(replace_tables(q.child, repl), q.group_by, q.aggs)
    if isinstance(q, Join):
        return Join(
            replace_tables(q.left, repl), replace_tables(q.right, repl), q.cond
        )
    if isinstance(q, CrossProduct):
        return CrossProduct(
            replace_tables(q.left, repl), replace_tables(q.right, repl)
        )
    if isinstance(q, Union):
        return Union(replace_tables(q.left, repl), replace_tables(q.right, repl))
    if isinstance(q, Distinct):
        return Distinct(replace_tables(q.child, repl))
    if isinstance(q, TopK):
        return TopK(replace_tables(q.child, repl), q.order, q.k)
    raise TypeError(f"unknown op {type(q).__name__}")
