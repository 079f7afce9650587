"""Self-tuning strategies (Sec. 9.5) driving real Spark executions."""
import numpy as np
import pytest

from repro.algebra.compile_spark import compile_op
from repro.core.ranges import equi_depth
from repro.core.selftune import SEL_THRESHOLD, SelfTuningDriver
from repro.core.sketch import ProvenanceSketch
from repro.core.use import apply_sketches
from repro.oracle import _canon
from repro.physical.stats import table_stats_pandas
from repro.workloads import crimes as WC


@pytest.fixture(scope="module")
def setup(crimes_db, crimes_pdb):
    stats = table_stats_pandas(crimes_pdb)
    part = equi_depth(crimes_pdb["crimes"]["cr_block"], "crimes", "cr_block", 32)
    return crimes_db, stats, {("crimes", "cr_block"): part}


def mk_driver(setup, **kw):
    db, stats, parts = setup
    return SelfTuningDriver(
        db, {"C-Q2": WC.SKETCH_ATTRS["C-Q2"]}, parts, stats=stats, **kw
    )


class TestEager:
    def test_capture_then_reuse(self, setup):
        d = mk_driver(setup, strategy="eager", patience=0)
        e1 = d.run("C-Q2", WC.cq2(250))
        e2 = d.run("C-Q2", WC.cq2(300))  # reusable from t=250
        e3 = d.run("C-Q2", WC.cq2(150))  # not reusable -> new capture
        assert e1.action == "capture"
        assert e2.action == "use"
        assert e3.action == "capture"
        assert len(d.store.entries) == 2

    def test_events_accumulate(self, setup):
        d = mk_driver(setup, strategy="eager", patience=0)
        for t in (250, 280, 320):
            d.run("C-Q2", WC.cq2(t))
        assert [e.action for e in d.events] == ["capture", "use", "use"]
        cum = d.cumulative()
        assert len(cum) == 3 and cum[-1][0] > 0 and cum[-1][1] > 0


class TestAdaptive:
    def test_waits_for_evidence(self, setup):
        d = mk_driver(setup, strategy="adaptive", patience=2)
        a1 = d.run("C-Q2", WC.cq2(250)).action
        a2 = d.run("C-Q2", WC.cq2(255)).action
        a3 = d.run("C-Q2", WC.cq2(260)).action
        a4 = d.run("C-Q2", WC.cq2(265)).action
        assert [a1, a2, a3, a4] == ["plain", "plain", "capture", "use"]


class TestGates:
    def test_nops_strategy_never_captures(self, setup):
        d = mk_driver(setup, strategy="nops")
        for t in (250, 260):
            assert d.run("C-Q2", WC.cq2(t)).action == "plain"
        assert not d.store.entries

    def test_coverage_gate(self, setup):
        # a stored sketch covering more than 75 % of its fragments is
        # not used: the query is a miss, so the eager driver captures
        part = setup[2][("crimes", "cr_block")]
        at_gate = int(SEL_THRESHOLD * part.n_fragments)
        for covered, action in ((at_gate, "use"), (at_gate + 1, "capture")):
            d = mk_driver(setup, strategy="eager", patience=0)
            sketch = ProvenanceSketch(part, frozenset(range(covered)))
            d.store.add("C-Q2", WC.cq2(250), {"crimes": sketch})
            assert d.run("C-Q2", WC.cq2(300)).action == action

    def test_gate_passes_over_to_a_narrower_entry(self, setup):
        # a wide entry stored first must not hide a reusable narrow one
        db, _, parts = setup
        part = parts[("crimes", "cr_block")]
        wide = int(SEL_THRESHOLD * part.n_fragments) + 1
        d = mk_driver(setup, strategy="eager", patience=0)
        d.store.add("C-Q2", WC.cq2(250), {"crimes": ProvenanceSketch(part, frozenset(range(wide)))})
        assert d.run("C-Q2", WC.cq2(260)).action == "capture"
        q = WC.cq2(300)
        assert d.run("C-Q2", q).action == "use"
        entry = d.store.find("C-Q2", q)
        assert entry is d.store.entries[1]
        got = compile_op(apply_sketches(q, entry.sketches), db).toPandas()
        want = compile_op(q, db).toPandas()
        assert len(want) > 0
        assert _canon(got).equals(_canon(want))

    def test_unknown_template_runs_plain(self, setup):
        d = mk_driver(setup, strategy="eager", patience=0)
        assert d.run("other", WC.cq1()).action == "plain"

    def test_invalid_strategy_rejected(self, setup):
        with pytest.raises(ValueError):
            mk_driver(setup, strategy="bogus")
