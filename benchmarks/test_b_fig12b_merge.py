"""T3 (Fig. 12b) — merging singleton sketches: naive per-bitset OR vs
*delay* vs *No-copy* (paper Sec. 7.3), at several partition sizes.
Expected shape: naive >> delay > nocopy."""
import numpy as np
import pytest

from repro.experiments.fig12_capture_opts import (
    bits_to_fragments,
    merge_delay,
    merge_naive,
    merge_nocopy,
)

N_SINGLETONS = 200_000
N_NAIVE = 20_000  # naive is O(n * words) python work; scaled subset


@pytest.fixture(scope="module")
def ids():
    return np.random.default_rng(0).integers(0, 10_000, N_SINGLETONS)


@pytest.mark.parametrize("n_frag", [1000, 10000])
def test_naive(benchmark, ids, n_frag):
    sub = ids[:N_NAIVE] % n_frag
    out = benchmark(merge_naive, sub, n_frag)
    assert bits_to_fragments(out) == frozenset(int(i) for i in sub)


@pytest.mark.parametrize("n_frag", [1000, 10000])
def test_delay(benchmark, ids, n_frag):
    sub = ids % n_frag
    out = benchmark(merge_delay, sub, n_frag)
    assert bits_to_fragments(out) == frozenset(int(i) for i in sub)


@pytest.mark.parametrize("n_frag", [1000, 10000])
def test_nocopy(benchmark, ids, n_frag):
    sub = ids % n_frag
    out = benchmark(merge_nocopy, sub, n_frag)
    assert bits_to_fragments(out) == frozenset(int(i) for i in sub)
