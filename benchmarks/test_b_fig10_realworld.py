"""T7 (Fig. 10) — real-world workloads: No-PS vs PS runtime.

One benchmark pair per crimes/movies/SOF query; PS uses a sketch
captured once per module over the group-by attributes (PSMIX for
crimes, 1000-fragment equi-depth for movies/SOF)."""
import pandas as pd
import pytest

from repro.algebra.compile_spark import compile_op
from repro.core.capture import capture_sketch
from repro.core.use import apply_sketches
from repro.experiments.fig10_realworld import _partitions, _queries
from repro.oracle import _canon


@pytest.fixture(scope="module")
def cases(crimes_ds, movies_ds, sof_ds):
    out = {}
    for name, q, ds, attrs, n_frag in _queries(crimes_ds, movies_ds, sof_ds):
        parts = _partitions(ds, attrs, n_frag)
        sk = capture_sketch(q, ds.disk, parts)
        out[name] = (q, ds, sk)
    return out


NAMES = ["C-Q1", "C-Q2", "M-Q1", "M-Q2", "M-Q3", "S-Q1", "S-Q2", "S-Q4", "S-Q5"]


@pytest.mark.parametrize("name", NAMES)
def test_no_ps(benchmark, cases, name):
    q, ds, _sk = cases[name]
    benchmark.pedantic(
        lambda: compile_op(q, ds.disk).collect(),
        rounds=3, iterations=1, warmup_rounds=1,
    )


@pytest.mark.parametrize("name", NAMES)
def test_ps(benchmark, cases, name):
    q, ds, sk = cases[name]
    qp = apply_sketches(q, sk)
    rows = benchmark.pedantic(
        lambda: compile_op(qp, ds.disk).collect(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    want = compile_op(q, ds.disk).collect()
    pd.testing.assert_frame_equal(
        _canon(pd.DataFrame(rows)), _canon(pd.DataFrame(want)), check_dtype=False
    )
