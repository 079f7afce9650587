"""Provenance sketches (Def. 3), and the bitvector codec and merge
strategies of the Fig. 12b micro-benchmark (Sec. 7)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranges import RangePartition
from repro.core.sketch import ProvenanceSketch
from repro.experiments.fig12_capture_opts import (
    bits_to_fragments,
    fragments_to_bits,
    merge_delay,
    merge_naive,
    merge_nocopy,
    n_words,
)

P4 = RangePartition("r", "a", (10, 20, 30))


class TestSketch:
    def test_valid_fragments(self):
        s = ProvenanceSketch(P4, frozenset({0, 2}))
        assert s.relation == "r" and s.attr == "a"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProvenanceSketch(P4, frozenset({7}))

    def test_selectivity(self):
        assert ProvenanceSketch(P4, frozenset({0, 1})).selectivity() == 0.5

    def test_size_bytes_compact(self):
        # the paper: sketches are 10s-100s of bytes even for many fragments
        bits = fragments_to_bits(frozenset({5, 50, 99}), 100)
        assert bits.nbytes == n_words(100) * 8 == 16


class TestBitsetCodec:
    def test_roundtrip_small(self):
        frags = frozenset({0, 3})
        assert bits_to_fragments(fragments_to_bits(frags, 4)) == frags

    def test_roundtrip_across_words(self):
        frags = frozenset({0, 63, 64, 99})
        assert bits_to_fragments(fragments_to_bits(frags, 100)) == frags

    def test_empty(self):
        assert bits_to_fragments(fragments_to_bits(frozenset(), 100)) == frozenset()

    def test_bitvector_from_sketch(self):
        s = ProvenanceSketch(P4, frozenset({1, 2}))
        assert bits_to_fragments(fragments_to_bits(s.fragments, 4)) == s.fragments

    @given(st.sets(st.integers(0, 499), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, frags):
        assert bits_to_fragments(fragments_to_bits(frags, 500)) == frozenset(frags)


class TestMergeStrategies:
    @given(st.lists(st.integers(0, 499), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_all_strategies_agree(self, ids):
        n = 500
        naive = merge_naive(ids, n)
        delay = merge_delay(ids, n)
        nocopy = merge_nocopy(ids, n)
        assert np.array_equal(naive, delay)
        assert np.array_equal(naive, nocopy)
        assert bits_to_fragments(naive) == frozenset(ids)

    def test_same_word_ids(self):
        # regression: multiple ids landing in one uint64 word must all set
        out = merge_nocopy([0, 1, 2, 63], 64)
        assert bits_to_fragments(out) == {0, 1, 2, 63}

