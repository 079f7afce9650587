"""Sketch-safety inference gc(Q, X) (paper Sec. 5, Fig. 3).

Two layers of checking:
1. decisions on the paper's examples and on each workload query match
   the expectations derived in the paper;
2. soundness property tests: whenever the checker says "safe", the
   accurate sketch must reproduce the query result on randomized
   databases (Def. 4/5 checked empirically via the interpreter).
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expr import And, Col, Lit, Or
from repro.algebra.interp import accurate_sketch, result_frame, sketch_instance
from repro.algebra.ops import (
    Aggregate,
    AggSpec,
    Distinct,
    Join,
    Project,
    Select,
    TableAccess,
    TopK,
    Union,
)
from repro.core.ranges import RangePartition, equi_depth
from repro.core.safety import choose_safe_attributes, is_safe
from repro.physical.stats import table_stats_pandas
from repro.workloads import crimes as WC
from repro.workloads import movies as WM
from repro.workloads import sof as WS
from repro.workloads import tpch as WT

CITIES = pd.DataFrame(
    {
        "popden": [4200, 6000, 5000, 7000, 2000, 3700, 2500],
        "city": ["Anchorage", "San Diego", "Sacramento", "New York", "Buffalo", "Austin", "Houston"],
        "state": ["AK", "CA", "CA", "NY", "NY", "TX", "TX"],
    }
)
SCAN = TableAccess("cities", ("popden", "city", "state"))
STATS = table_stats_pandas({"cities": CITIES})


def q2_topk():
    return TopK(
        Aggregate(SCAN, ("state",), (AggSpec("avg", "popden", "avgden"),)),
        (("avgden", False), ("state", True)),
        1,
    )


class TestPaperExamples:
    def test_state_safe_for_q2(self):
        assert is_safe(q2_topk(), {"cities": ["state"]}, STATS).safe

    def test_popden_unsafe_for_q2(self):
        assert not is_safe(q2_topk(), {"cities": ["popden"]}, STATS).safe

    def test_topk_caveat_flagged(self):
        # paper footnote 1: top-k safety assumes the input has >= C rows
        assert is_safe(q2_topk(), {"cities": ["state"]}, STATS).topk_caveat

    def test_selection_query_any_attr_safe(self):
        q1 = Project(
            Select(SCAN, Col("state").eq(Lit("CA"))),
            ((Col("city"), "city"), (Col("popden"), "popden")),
        )
        assert is_safe(q1, {"cities": ["state"]}, STATS).safe
        assert is_safe(q1, {"cities": ["popden"]}, STATS).safe

    def test_example6_sum_having_lt_unsafe(self):
        # paper Ex. 6: sigma_{totden<7000}(gamma_{state;sum(popden)})
        # on popden: sum gives totden <= totden' but < does not transfer
        q = Select(
            Aggregate(SCAN, ("state",), (AggSpec("sum", "popden", "totden"),)),
            Col("totden").lt(Lit(7000)),
        )
        assert not is_safe(q, {"cities": ["popden"]}, STATS).safe

    def test_sum_having_gt_safe_direction(self):
        # with > the monotone direction transfers (cnt > t stays true)
        q = Select(
            Aggregate(SCAN, ("state",), (AggSpec("sum", "popden", "totden"),)),
            Col("totden").gt(Lit(7000)),
        )
        assert is_safe(q, {"cities": ["popden"]}, STATS).safe

    def test_sum_needs_positivity_stats(self):
        # without stats we cannot prove popden >= 0 -> unsafe verdict
        q = Select(
            Aggregate(SCAN, ("state",), (AggSpec("sum", "popden", "totden"),)),
            Col("totden").gt(Lit(7000)),
        )
        assert not is_safe(q, {"cities": ["popden"]}, None).safe

    def test_group_by_attr_always_safe_for_agg(self):
        q = Aggregate(SCAN, ("state",), (AggSpec("avg", "popden", "avgden"),))
        assert is_safe(q, {"cities": ["state"]}, None).safe


class TestOperatorRules:
    def test_count_having_gt_safe_any_attr(self):
        q = Select(
            Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),)),
            Col("n").gt(Lit(1)),
        )
        assert is_safe(q, {"cities": ["popden"]}, None).safe

    def test_count_having_lt_unsafe(self):
        q = Select(
            Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),)),
            Col("n").lt(Lit(2)),
        )
        assert not is_safe(q, {"cities": ["popden"]}, None).safe

    def test_distinct_after_agg_unsafe_attr(self):
        q = Distinct(Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),)))
        # n only has <=; distinct requires equality on all attrs
        assert not is_safe(q, {"cities": ["popden"]}, None).safe

    def test_distinct_on_preserved_attrs_safe(self):
        q = Distinct(Project(SCAN, ((Col("state"), "state"),)))
        assert is_safe(q, {"cities": ["popden"]}, None).safe

    def test_topk_on_count_unsafe_non_group_attr(self):
        q = TopK(
            Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),)),
            (("n", False),),
            1,
        )
        assert not is_safe(q, {"cities": ["popden"]}, None).safe

    def test_selection_over_topk_unsafe(self):
        # the sketch of the top 2 by v keeps (3, 30) when every row sits
        # in one fragment, and the selection above then returns it
        t = pd.DataFrame({"id": [1, 2, 3], "v": [100, 40, 30]})
        q = Select(TopK(TableAccess("t", ("id", "v")), (("v", False),), 2), Col("v").lt(Lit(50)))
        for attr, cuts in (("v", (50,)), ("id", (1, 3))):
            verdict = is_safe(q, {"t": [attr]}, table_stats_pandas({"t": t}))
            assert not verdict.safe and "top-k" in verdict.reason
            part = RangePartition("t", attr, cuts)
            inst = sketch_instance({"t": t}, {"t": part}, accurate_sketch(q, {"t": t}, {"t": part}))
            assert len(result_frame(q, inst)) > len(result_frame(q, {"t": t}))

    def test_topk_on_count_safe_group_attr(self):
        q = TopK(
            Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),)),
            (("n", False),),
            1,
        )
        assert is_safe(q, {"cities": ["state"]}, None).safe

    def test_join_on_group_attr_chain(self):
        # sketch attr equated to group-by through the join condition
        other = TableAccess("states", ("st", "region"))
        j = Join(SCAN, other, Col("state").eq(Col("st")))
        q = TopK(
            Aggregate(j, ("st",), (AggSpec("count", None, "n"),)),
            (("n", False), ("st", True)),
            2,
        )
        assert is_safe(q, {"cities": ["state"]}, None).safe

    def test_union_of_selections_safe(self):
        q = Union(
            Select(SCAN, Col("state").eq(Lit("CA"))),
            Select(SCAN, Col("popden").gt(Lit(5000))),
        )
        assert is_safe(q, {"cities": ["state"]}, STATS).safe

    def test_projection_renamed_equality(self):
        q = Select(
            Project(SCAN, ((Col("popden") * Lit(2), "p2"), (Col("state"), "state"))),
            Col("p2").gt(Lit(8000)),
        )
        assert is_safe(q, {"cities": ["state"]}, STATS).safe

    def test_global_agg_over_disjunction_safe(self):
        q = Aggregate(
            Select(SCAN, Or(Col("state").eq(Lit("CA")), Col("popden").gt(Lit(6500)))),
            (),
            (AggSpec("sum", "popden", "tot"),),
        )
        assert is_safe(q, {"cities": ["popden"]}, STATS).safe


class TestWorkloadDecisions:
    """The SKETCH_ATTRS shipped with each workload must be judged safe,
    matching the paper's per-query choices."""

    @pytest.mark.parametrize("qname", ["Q3", "Q10", "Q15", "Q18", "Q19"])
    def test_tpch_sketch_attrs_safe(self, qname):
        q = WT.all_queries()[qname]
        stats = table_stats_pandas(WT.tables_pandas(sf=0.001))
        for rel, attr in WT.SKETCH_ATTRS[qname].items():
            assert is_safe(q, {rel: [attr]}, stats).safe, (qname, rel, attr)

    def test_tpch_q10_lineitem_pk_unsafe(self):
        # paper: when the PK is unsafe, fall back to group-by attrs.
        stats = table_stats_pandas(WT.tables_pandas(sf=0.001))
        assert not is_safe(WT.q10(), {"lineitem": ["l_orderkey"]}, stats).safe

    def test_crimes_sketch_attrs_safe(self):
        stats = table_stats_pandas(WC.tables_pandas(sf=0.0005))
        assert is_safe(WC.cq1(), {"crimes": ["cr_area"]}, stats).safe
        assert is_safe(WC.cq2(100), {"crimes": ["cr_block"]}, stats).safe

    def test_crimes_cq1_non_group_unsafe(self):
        assert not is_safe(WC.cq1(), {"crimes": ["cr_year"]}, None).safe

    def test_movies_sketch_attrs_safe(self):
        for name, q in [("M-Q1", WM.mq1()), ("M-Q2", WM.mq2(100)), ("M-Q3", WM.mq3())]:
            for rel, attr in WM.SKETCH_ATTRS[name].items():
                assert is_safe(q, {rel: [attr]}, None).safe, (name, rel)

    def test_sof_sketch_attrs_safe(self):
        for name, q in [
            ("S-Q1", WS.sq1()),
            ("S-Q2", WS.sq2()),
            ("S-Q4", WS.sq4()),
            ("S-Q5", WS.sq5(10, 20)),
        ]:
            for rel, attr in WS.SKETCH_ATTRS[name].items():
                assert is_safe(q, {rel: [attr]}, None).safe, (name, rel)

    def test_choose_safe_attributes_policy(self):
        # PK first, group-by fallback (Sec. 9.3)
        q = WC.cq1()
        chosen = choose_safe_attributes(
            q, {"crimes": ["cr_id", "cr_area"]}, None
        )
        # cr_id (PK) is not equated to the group-by -> falls back to cr_area
        assert chosen == {"crimes": "cr_area"}


@st.composite
def random_cities(draw):
    n = draw(st.integers(4, 24))
    popden = draw(st.lists(st.integers(100, 9999), min_size=n, max_size=n))
    states = draw(
        st.lists(st.sampled_from(["AK", "CA", "NY", "TX", "FL", "WA"]), min_size=n, max_size=n)
    )
    return pd.DataFrame({"popden": popden, "city": [f"c{i}" for i in range(n)], "state": states})


class TestSoundnessProperty:
    """Thm. 2, empirically: checker-approved attributes yield accurate
    sketches whose instance reproduces the result, on random data and
    random partitions."""

    @given(random_cities(), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_safe_verdicts_hold(self, cities, n_frag):
        db = {"cities": cities}
        stats = table_stats_pandas(db)
        queries = [
            q2_topk(),
            Select(
                Aggregate(SCAN, ("state",), (AggSpec("count", None, "n"),)),
                Col("n").gt(Lit(2)),
            ),
            Aggregate(SCAN, ("state",), (AggSpec("sum", "popden", "tot"),)),
            Select(TopK(SCAN, (("city", False),), 2), Col("popden").lt(Lit(5000))),
        ]
        for q in queries:
            for attr in ("state", "popden"):
                verdict = is_safe(q, {"cities": [attr]}, stats)
                if not verdict.safe:
                    continue
                part = equi_depth(cities[attr], "cities", attr, n_frag)
                sk = accurate_sketch(q, db, {"cities": part})
                inst = sketch_instance(db, {"cities": part}, sk)
                got = result_frame(q, inst).reset_index(drop=True)
                exp = result_frame(q, db).reset_index(drop=True)
                cols = sorted(got.columns)
                got = got[cols].sort_values(cols).reset_index(drop=True)
                exp = exp[cols].sort_values(cols).reset_index(drop=True)
                pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_superset_of_safe_sketch_safe(self):
        # Lem. 5: adding fragments to a safe sketch keeps it safe
        db = {"cities": CITIES}
        part = equi_depth(CITIES["state"], "cities", "state", 4)
        q = q2_topk()
        sk = accurate_sketch(q, db, {"cities": part})
        bigger = {"cities": frozenset(set(sk["cities"]) | {part.n_fragments - 1})}
        inst = sketch_instance(db, {"cities": part}, bigger)
        pd.testing.assert_frame_equal(result_frame(q, inst), result_frame(q, db))
