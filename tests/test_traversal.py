"""The one field-driven traversal of the IR (``expr.Node``): every
operator and expression class gets ``children``, ``map``, ``bind``,
``params``, ``columns``/``relations`` and the rewrites built on them
(``safety.prime``, ``ops.replace_tables``) from its dataclass fields."""
import pytest

from repro.algebra.expr import (
    And,
    BinOp,
    Cmp,
    Col,
    Expr,
    IsNull,
    Lit,
    Node,
    Not,
    Or,
    Param,
)
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
    replace_tables,
)
from repro.core.capture import EmptyArray, ToArray
from repro.core.safety import PRIME, prime

R = TableAccess("r", ("a", "b"))
S = TableAccess("s", ("c", "d"))
A_GT_P = Cmp(">", Col("a"), Param("p"))

# (node, params, columns of an Expr or relations of an Op)
CASES = [
    (Col("a"), {}, {"a"}),
    (Lit(1), {}, {}),
    (Param("p"), {"p"}, {}),
    (BinOp("+", Col("a"), Param("p")), {"p"}, {"a"}),
    (A_GT_P, {"p"}, {"a"}),
    (IsNull(BinOp("*", Col("a"), Param("p"))), {"p"}, {"a"}),
    (And(A_GT_P, Cmp("=", Col("b"), Lit(1))), {"p"}, {"a", "b"}),
    (Or(A_GT_P, Cmp("<", Col("b"), Param("q"))), {"p", "q"}, {"a", "b"}),
    (Not(Cmp("<>", Col("b"), Param("q"))), {"q"}, {"b"}),
    (ToArray(BinOp("-", Col("a"), Param("p"))), {"p"}, {"a"}),
    (EmptyArray(), {}, {}),
    (R, {}, {"r"}),
    (Select(R, A_GT_P), {"p"}, {"r"}),
    (Project(R, ((BinOp("+", Col("a"), Param("p")), "x"), (Col("b"), "b"))), {"p"}, {"r"}),
    (Aggregate(Select(R, A_GT_P), ("a",), (AggSpec("sum", "b", "sb"),)), {"p"}, {"r"}),
    (Join(R, S, And(Cmp("=", Col("a"), Col("c")), Cmp("<", Col("d"), Param("q")))), {"q"}, {"r", "s"}),
    (CrossProduct(R, Select(S, Cmp("=", Col("c"), Param("p")))), {"p"}, {"r", "s"}),
    (Union(Select(R, A_GT_P), S), {"p"}, {"r", "s"}),
    (Distinct(Select(R, Cmp("=", Col("b"), Param("q")))), {"q"}, {"r"}),
    (TopK(Select(R, A_GT_P), (("a", True), ("b", False)), 3), {"p"}, {"r"}),
]


def _walk(n: Node):
    yield n
    for c in n.children():
        yield from _walk(c)


def _concrete(cls):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_") and sub not in (Op, Expr):
            yield sub
        yield from _concrete(sub)


def test_every_node_class_is_covered():
    assert set(_concrete(Node)) == {type(n) for n, _, _ in CASES}


@pytest.mark.parametrize(
    "node,params,names", CASES, ids=[type(n).__name__ for n, _, _ in CASES]
)
def test_traversal(node, params, names):
    # an identity rebuild is an equal, new node
    same = node.map(lambda c: c)
    assert same == node and same is not node
    # bind leaves no parameter
    bound = node.bind({"p": 1, "q": 2})
    assert not any(isinstance(n, Param) for n in _walk(bound))
    assert bound.params() == frozenset()
    assert type(bound) is (Lit if isinstance(node, Param) else type(node))
    assert node.params() == frozenset(params)
    if isinstance(node, Expr):
        assert node.columns() == frozenset(names)
        assert prime(node).columns() == {c + PRIME for c in names}
    else:
        assert node.relations() == frozenset(names)
        # a replaced scan is a subtree of the result wherever r was read
        sel = Select(R, Cmp("=", Col("a"), Lit(0)))
        out = replace_tables(node, {"r": sel})
        assert out.relations() == node.relations()
        assert (sel in set(_walk(out))) == ("r" in names)


def test_prime_isnull():
    assert prime(IsNull(Col("a"))) == IsNull(Col("a" + PRIME))
