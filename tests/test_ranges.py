"""Range partitions (Def. 2) and equi-depth construction."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranges import RangePartition, equi_depth

P = RangePartition("r", "a", (10, 20, 30))


class TestFragmentOf:
    @pytest.mark.parametrize(
        "v,f",
        [(-5, 0), (10, 0), (11, 1), (20, 1), (21, 2), (30, 2), (31, 3), (1000, 3)],
    )
    def test_boundaries_right_closed(self, v, f):
        assert P.fragment_of(v) == f

    def test_series_matches_scalar(self):
        s = pd.Series([-5, 10, 11, 20, 21, 30, 31])
        assert list(P.fragment_of_series(s)) == [P.fragment_of(v) for v in s]

    def test_n_fragments(self):
        assert P.n_fragments == 4

    def test_string_partition(self):
        ps = RangePartition("r", "s", ("DE", "MI", "OK"))
        assert ps.fragment_of("CA") == 0
        assert ps.fragment_of("DE") == 0
        assert ps.fragment_of("FL") == 1
        assert ps.fragment_of("WY") == 3


class TestBounds:
    def test_first_open_low(self):
        assert P.bounds(0) == (None, 10)

    def test_middle(self):
        assert P.bounds(1) == (10, 20)

    def test_last_open_high(self):
        assert P.bounds(3) == (30, None)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            P.bounds(4)


class TestMergedRanges:
    def test_adjacent_coalesce(self):
        assert P.merged_ranges([0, 1]) == [(None, 20)]

    def test_gap_keeps_two(self):
        assert P.merged_ranges([0, 2]) == [(None, 10), (20, 30)]

    def test_all_fragments(self):
        assert P.merged_ranges([0, 1, 2, 3]) == [(None, None)]

    def test_single(self):
        assert P.merged_ranges([2]) == [(20, 30)]

    def test_empty(self):
        assert P.merged_ranges([]) == []

    def test_duplicates_ignored(self):
        assert P.merged_ranges([1, 1, 2]) == [(10, 30)]


class TestEquiDepth:
    def test_uniform_depth(self):
        s = pd.Series(np.arange(1000))
        p = equi_depth(s, "r", "a", 10)
        assert p.n_fragments == 10
        counts = p.fragment_of_series(s).value_counts()
        assert counts.max() - counts.min() <= 2

    def test_skew_collapses_fragments(self):
        # a heavy hitter collapses duplicate quantiles, like a DBMS histogram
        s = pd.Series([5] * 900 + list(range(100)))
        p = equi_depth(s, "r", "a", 10)
        assert p.n_fragments < 10

    def test_every_value_mapped(self):
        s = pd.Series(np.random.default_rng(0).integers(0, 10_000, 5000))
        p = equi_depth(s, "r", "a", 64)
        f = p.fragment_of_series(s)
        assert f.min() >= 0 and f.max() < p.n_fragments

    def test_string_equi_depth(self):
        s = pd.Series(list("abcdefghij") * 10)
        p = equi_depth(s, "r", "s", 5)
        assert p.n_fragments >= 2
        assert p.fragment_of("a") == 0

    @pytest.mark.parametrize("dtype", ["float64", "Int64"])
    def test_cuts_ignore_nulls(self, dtype):
        # a NULL neither becomes a cut nor shifts the quantiles; it
        # falls in the last fragment
        s = pd.Series([1, 2, None, 4, 5, 6, 7, 8], dtype=dtype)
        p = equi_depth(s, "r", "a", 4)
        assert p.boundaries == equi_depth(s.dropna().astype("int64"), "r", "a", 4).boundaries
        assert p.boundaries == (2, 5, 6)
        assert p.fragment_of_series(s)[2] == p.n_fragments - 1

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=300), st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_domain(self, vals, n):
        """Def. 2: every value belongs to exactly one fragment."""
        s = pd.Series(vals)
        p = equi_depth(s, "r", "a", n)
        f = p.fragment_of_series(s)
        assert ((f >= 0) & (f < p.n_fragments)).all()
        # disjoint + covering: fragment_of is a total function; bounds
        # reconstruct membership
        for v in vals[:20]:
            i = p.fragment_of(v)
            lo, hi = p.bounds(i)
            assert (lo is None or v > lo) and (hi is None or v <= hi)
