"""T2 (Fig. 12a) — singleton-sketch creation: CASE chain vs binary
search, per partition size. The paper's separation (~2 orders of
magnitude at PS10K) appears here as the CASE chain growing linearly in
|F| while binary search stays flat; the CASE chain is capped at 1000
arms (larger chains also blow up Catalyst plan compilation)."""
import pytest

from repro.experiments.fig12_capture_opts import init_plan

CASES = [("case", 32), ("case", 1000), ("bsearch", 32), ("bsearch", 1000), ("bsearch", 10000)]
N_ROWS = 200_000  # init cost is linear in rows; cap keeps the bench fast


@pytest.fixture(scope="module")
def init_tables(crimes_ds):
    df = crimes_ds.mem["crimes"].limit(N_ROWS).cache()
    df.count()
    yield {"crimes": df}
    df.unpersist()


@pytest.mark.parametrize("method,n_frag", CASES, ids=[f"{m}-{n}" for m, n in CASES])
def test_init(benchmark, crimes_ds, init_tables, method, n_frag):
    plan = init_plan(crimes_ds, init_tables["crimes"], n_frag, method)
    out = benchmark.pedantic(
        plan.collect,
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert out[0]["mx"] <= n_frag - 1
