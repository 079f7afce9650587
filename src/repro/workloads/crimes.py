"""Crimes workload (paper Sec. 9.1/9.4): C-Q1 and C-Q2.

* C-Q1 — the 5 areas with the most crimes (top-5 over group count);
* C-Q2 — the number of blocks with more than t crimes (nested
  aggregation with a HAVING-style selection in between).

Both are exactly the query classes static analysis cannot skip data
for; safe sketches go on the group-by attributes (the paper's PSMIX —
its group-by attributes are strongly correlated geographical columns,
which our generator models by making area/block zipfian).
"""
from __future__ import annotations

import pandas as pd

from repro import synth_data
from repro.algebra.expr import Col, Lit, Param
from repro.algebra.ops import Aggregate, AggSpec, Op, Select, TableAccess, TopK
from repro.workloads.templates import ParamSpec, Template

SCHEMAS = {"crimes": ("cr_id", "cr_area", "cr_block", "cr_type", "cr_year")}


def scan() -> TableAccess:
    return TableAccess("crimes", SCHEMAS["crimes"])


def tables_pandas(sf: float = 0.001) -> dict[str, pd.DataFrame]:
    return {"crimes": synth_data.crimes_pdf(sf=sf)}


def cq1() -> Op:
    """C-Q1: top-5 areas by number of crimes."""
    agg = Aggregate(scan(), ("cr_area",), (AggSpec("count", None, "cnt"),))
    return TopK(agg, (("cnt", False), ("cr_area", True)), 5)


def cq2(threshold: float | Param = 10_000) -> Op:
    """C-Q2: how many blocks saw more than ``threshold`` crimes."""
    thr = threshold if isinstance(threshold, Param) else Lit(threshold)
    inner = Aggregate(scan(), ("cr_block",), (AggSpec("count", None, "cnt"),))
    hav = Select(inner, Col("cnt").gt(thr))
    return Aggregate(hav, (), (AggSpec("count", None, "num_blocks"),))


SKETCH_ATTRS = {
    "C-Q1": {"crimes": "cr_area"},
    "C-Q2": {"crimes": "cr_block"},
}


def cq2_template(*, mean: float, sdv: float) -> Template:
    return Template(
        name="C-Q2",
        ir=cq2(Param("t")),
        params=(ParamSpec("t", mean=mean, sdv=sdv, lo=1),),
        sketch_attrs=SKETCH_ATTRS["C-Q2"],
    )
