"""TPC-H-lite queries for the Sec. 9.3 experiments.

TPC-H-lite (``repro.synth_data``) carries lineitem/orders/customer/
part, so we reproduce the PBDS-relevant TPC-H queries expressible over
those four tables:

* Q1  — non-selective aggregation (provenance > 95 % of lineitem; the
        paper's "no benefit" case),
* Q3  — top-10 orders by revenue (3-way join),
* Q10 — top-20 customers by revenue,
* Q15 — top-1 revenue analogue (supplier -> part, we lack supplier),
* Q18 — HAVING sum(l_quantity) > t, then joins (parameterized),
* Q19 — global aggregate over a disjunctive selection.

``SKETCH_ATTRS`` lists the safe sketch attribute per relation,
following the paper's policy (PK where safe, else group-by attrs);
the tests re-derive these via the Sec. 5 safety checker.
"""
from __future__ import annotations

import datetime as dt

import pandas as pd

from repro import synth_data
from repro.algebra.expr import And, Col, Lit, Or, Param
from repro.algebra.ops import Aggregate, AggSpec, Join, Op, Project, Select, TableAccess, TopK
from repro.workloads.templates import ParamSpec, Template

SCHEMAS = {
    "lineitem": (
        "l_orderkey", "l_partkey", "l_linenumber", "l_quantity",
        "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
        "l_linestatus", "l_shipdate",
    ),
    "orders": (
        "o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
        "o_orderdate", "o_orderpriority",
    ),
    "customer": ("c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"),
    "part": ("p_partkey", "p_type", "p_brand", "p_size", "p_retailprice"),
}


def scan(name: str) -> TableAccess:
    return TableAccess(name, SCHEMAS[name])


def tables_pandas(sf: float = 0.01) -> dict[str, pd.DataFrame]:
    # reuse the Spark generators' pandas construction deterministically
    class _Fake:
        @staticmethod
        def createDataFrame(pdf):
            return pdf

    return {
        "lineitem": synth_data.lineitem(_Fake, sf=sf),
        "orders": synth_data.orders(_Fake, sf=sf),
        "customer": synth_data.customer(_Fake, sf=sf),
        "part": synth_data.part(_Fake, sf=sf),
    }


_REV = (Col("l_extendedprice") * (Lit(1.0) - Col("l_discount")), "rev")


def q1(cutoff: dt.datetime = dt.datetime(1998, 9, 1)) -> Op:
    """Pricing summary — non-selective (provenance ~ whole lineitem)."""
    return Aggregate(
        Select(scan("lineitem"), Col("l_shipdate").le(Lit(cutoff))),
        ("l_returnflag", "l_linestatus"),
        (
            AggSpec("sum", "l_quantity", "sum_qty"),
            AggSpec("sum", "l_extendedprice", "sum_base_price"),
            AggSpec("avg", "l_discount", "avg_disc"),
            AggSpec("count", None, "count_order"),
        ),
    )


def q3(segment: str = "BUILDING", date: dt.datetime = dt.datetime(1995, 3, 15)) -> Op:
    """Top-10 unshipped orders by revenue."""
    cust = Select(scan("customer"), Col("c_mktsegment").eq(Lit(segment)))
    ords = Select(scan("orders"), Col("o_orderdate").lt(Lit(date)))
    li = Select(scan("lineitem"), Col("l_shipdate").gt(Lit(date)))
    j1 = Join(cust, ords, Col("c_custkey").eq(Col("o_custkey")))
    j2 = Join(j1, li, Col("o_orderkey").eq(Col("l_orderkey")))
    proj = Project(
        j2, ((Col("o_orderkey"), "o_orderkey"), (Col("o_orderdate"), "o_orderdate"), _REV)
    )
    agg = Aggregate(
        proj, ("o_orderkey", "o_orderdate"), (AggSpec("sum", "rev", "revenue"),)
    )
    return TopK(agg, (("revenue", False), ("o_orderkey", True)), 10)


def q10(
    d1: dt.datetime = dt.datetime(1993, 10, 1),
    d2: dt.datetime = dt.datetime(1994, 1, 1),
) -> Op:
    """Top-20 customers by lost revenue on returned items."""
    ords = Select(
        scan("orders"),
        And(Col("o_orderdate").ge(Lit(d1)), Col("o_orderdate").lt(Lit(d2))),
    )
    li = Select(scan("lineitem"), Col("l_returnflag").eq(Lit("R")))
    j1 = Join(scan("customer"), ords, Col("c_custkey").eq(Col("o_custkey")))
    j2 = Join(j1, li, Col("o_orderkey").eq(Col("l_orderkey")))
    proj = Project(
        j2, ((Col("c_custkey"), "c_custkey"), (Col("c_acctbal"), "c_acctbal"), _REV)
    )
    agg = Aggregate(
        proj, ("c_custkey", "c_acctbal"), (AggSpec("sum", "rev", "revenue"),)
    )
    return TopK(agg, (("revenue", False), ("c_custkey", True)), 20)


def q15(
    d1: dt.datetime = dt.datetime(1996, 1, 1),
    d2: dt.datetime = dt.datetime(1996, 4, 1),
) -> Op:
    """Top-revenue part in a quarter (Q15's top-supplier analogue)."""
    li = Select(
        scan("lineitem"),
        And(Col("l_shipdate").ge(Lit(d1)), Col("l_shipdate").lt(Lit(d2))),
    )
    proj = Project(li, ((Col("l_partkey"), "l_partkey"), _REV))
    agg = Aggregate(proj, ("l_partkey",), (AggSpec("sum", "rev", "total_rev"),))
    return TopK(agg, (("total_rev", False), ("l_partkey", True)), 1)


def q18(qty_threshold: float | Param = 350.0) -> Op:
    """Large-volume customers: orders with sum(quantity) > t."""
    thr = qty_threshold if isinstance(qty_threshold, Param) else Lit(qty_threshold)
    inner = Aggregate(
        scan("lineitem"), ("l_orderkey",), (AggSpec("sum", "l_quantity", "sum_qty"),)
    )
    hav = Select(inner, Col("sum_qty").gt(thr))
    j1 = Join(hav, scan("orders"), Col("l_orderkey").eq(Col("o_orderkey")))
    j2 = Join(j1, scan("customer"), Col("o_custkey").eq(Col("c_custkey")))
    return Project(
        j2,
        (
            (Col("c_custkey"), "c_custkey"),
            (Col("o_orderkey"), "o_orderkey"),
            (Col("o_totalprice"), "o_totalprice"),
            (Col("sum_qty"), "sum_qty"),
        ),
    )


def q19() -> Op:
    """Discounted revenue over a disjunction of brand/size/qty bands."""
    j = Join(scan("part"), scan("lineitem"), Col("p_partkey").eq(Col("l_partkey")))
    disj = Or(
        And(
            Col("p_brand").eq(Lit("Brand#11")),
            Col("l_quantity").ge(Lit(1.0)),
            Col("l_quantity").le(Lit(11.0)),
            Col("p_size").le(Lit(5)),
        ),
        And(
            Col("p_brand").eq(Lit("Brand#23")),
            Col("l_quantity").ge(Lit(10.0)),
            Col("l_quantity").le(Lit(20.0)),
            Col("p_size").le(Lit(10)),
        ),
        And(
            Col("p_brand").eq(Lit("Brand#34")),
            Col("l_quantity").ge(Lit(20.0)),
            Col("l_quantity").le(Lit(30.0)),
            Col("p_size").le(Lit(15)),
        ),
    )
    proj = Project(Select(j, disj), (_REV,))
    return Aggregate(proj, (), (AggSpec("sum", "rev", "revenue"),))


QUERIES: dict[str, Op] = {}


def all_queries() -> dict[str, Op]:
    return {
        "Q1": q1(),
        "Q3": q3(),
        "Q10": q10(),
        "Q15": q15(),
        "Q18": q18(),
        "Q19": q19(),
    }


# Safe sketch attributes per query (paper Sec. 9.3 policy). Verified by
# tests against the Sec. 5 checker. Q1 is the no-benefit baseline (its
# provenance covers ~the whole input), so it has no sketch entry.
SKETCH_ATTRS: dict[str, dict[str, str]] = {
    "Q1": {},
    "Q3": {"orders": "o_orderkey", "lineitem": "l_orderkey"},
    "Q10": {"customer": "c_custkey", "orders": "o_custkey"},
    "Q15": {"lineitem": "l_partkey"},
    "Q18": {"lineitem": "l_orderkey", "orders": "o_orderkey"},
    "Q19": {"part": "p_partkey", "lineitem": "l_partkey"},
}


def q18_template(sf: float = 0.01) -> Template:
    """Parameterized Q18 for the end-to-end experiment: the HAVING
    threshold is N(mu, sdv)-distributed."""
    return Template(
        name="Q18",
        ir=q18(Param("t")),
        params=(ParamSpec("t", mean=345.0, sdv=8.0, lo=320.0, hi=380.0),),
        sketch_attrs=SKETCH_ATTRS["Q18"],
    )
