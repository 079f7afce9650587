"""Unit tests for the Sec. 8.1 predicate machinery: range coarsening
and the sketch predicate built from it (no Spark needed)."""
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expr import And, Col, Lit, Or
from repro.core.ranges import RangePartition
from repro.core.sketch import ProvenanceSketch
from repro.core.use import MAX_DISJUNCTS, coarsen_ranges, sketch_predicate

P8 = RangePartition("r", "a", (10, 20, 30, 40, 50, 60, 70))
# more than 2 * MAX_DISJUNCTS fragments, so sketches can exceed the budget
P16 = RangePartition("r", "a", tuple(range(10, 160, 10)))


class TestCoarsen:
    def test_within_budget_unchanged(self):
        rs = [(None, 10), (20, 30)]
        assert coarsen_ranges(rs, 4) == rs

    def test_merges_smallest_gap_first(self):
        rs = [(0, 10), (11, 20), (100, 110)]
        out = coarsen_ranges(rs, 2)
        assert out == [(0, 20), (100, 110)]

    def test_budget_one(self):
        rs = [(0, 10), (50, 60), (90, 100)]
        assert coarsen_ranges(rs, 1) == [(0, 100)]

    def test_superset_property(self):
        rs = [(0, 10), (30, 40), (40, 45), (80, 81)]
        out = coarsen_ranges(rs, 2)
        # every original range is inside some coarsened range
        for lo, hi in rs:
            assert any(
                (clo is None or clo <= lo) and (chi is None or chi >= hi)
                for clo, chi in out
            )

    def test_open_ends(self):
        rs = [(None, 10), (20, 30), (90, None)]
        out = coarsen_ranges(rs, 2)
        assert out[0][0] is None and out[-1][1] is None


class TestSketchPredicate:
    def test_small_sketch_pure_or(self):
        sk = ProvenanceSketch(P8, frozenset({0, 2}))
        assert sketch_predicate(sk) == Or(
            Col("a").le(Lit(10)), And(Col("a").gt(Lit(20)), Col("a").le(Lit(30)))
        )

    def test_large_sketch_coarsened(self):
        sk = ProvenanceSketch(P16, frozenset(range(0, 16, 2)))
        pred = sketch_predicate(sk)
        assert isinstance(pred, Or) and len(pred.terms) == MAX_DISJUNCTS

    def test_large_sketch_superset(self):
        frags = frozenset(range(0, 16, 2))
        pred = sketch_predicate(ProvenanceSketch(P16, frags))
        vals = list(range(-5, 170))
        got = list(pred.eval_pandas(pd.DataFrame({"a": vals})))
        assert all(g for v, g in zip(vals, got) if P16.fragment_of(v) in frags)
        assert not all(got)

    def test_eval_pandas(self):
        sk = ProvenanceSketch(P8, frozenset({0, 2, 7}))
        df = pd.DataFrame({"a": [5, 10, 11, 20, 21, 30, 31, 70, 71]})
        got = list(sketch_predicate(sk).eval_pandas(df))
        assert got == [True, True, False, False, True, True, False, False, True]

    def test_string_ranges(self):
        part = RangePartition("r", "s", ("b", "d", "x"))
        sk = ProvenanceSketch(part, frozenset({1, 3}))
        df = pd.DataFrame({"s": ["a", "b", "c", "d", "e", "y"]})
        got = list(sketch_predicate(sk).eval_pandas(df))
        assert got == [False, False, True, True, False, True]

    def test_full_coverage_none(self):
        sk = ProvenanceSketch(P8, frozenset(range(8)))
        assert sketch_predicate(sk) is None

    def test_empty_false(self):
        sk = ProvenanceSketch(P8, frozenset())
        assert sketch_predicate(sk) == Lit(False)

    @given(
        st.sets(st.integers(0, 15), min_size=1, max_size=15),
        st.lists(st.integers(-5, 170), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_fragment_of(self, frags, vals):
        """Within the budget the predicate is exactly fragment_of in the
        sketch; beyond it, a superset with at most MAX_DISJUNCTS ranges."""
        sk = ProvenanceSketch(P16, frozenset(frags))
        pred = sketch_predicate(sk)
        got = list(pred.eval_pandas(pd.DataFrame({"a": vals})))
        exp = [P16.fragment_of(v) in frags for v in vals]
        if len(P16.merged_ranges(frags)) <= MAX_DISJUNCTS:
            assert got == exp
        else:
            assert all(g for g, e in zip(got, exp) if e)
            assert isinstance(pred, Or) and len(pred.terms) <= MAX_DISJUNCTS
