"""Unit tests for the experiment drivers' pure-python pieces."""
import numpy as np
import pandas as pd
import pytest

from repro.core.ranges import RangePartition
from repro.experiments.common import fmt_table, timed
from repro.experiments.fig12_capture_opts import fragment_id
from repro.experiments.fig13_endtoend import COLUMNS as F13_COLS
from repro.experiments.fig14_amortization import format_table, run_from_fig11
from repro.experiments.t9_checks import run as run_t9


class TestFmtTable:
    def test_basic(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": None}]
        out = fmt_table(rows, ("a", "b"), "Title")
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "2.346" in out and "-" in lines[-1]

    def test_empty_rows(self):
        out = fmt_table([], ("x",), "T")
        assert "x" in out

    def test_missing_column(self):
        out = fmt_table([{"a": 1}], ("a", "missing"), "T")
        assert out.splitlines()[-1].strip().endswith("-")


class TestTimed:
    def test_returns_median(self):
        calls = []
        t = timed(lambda: calls.append(1), reps=3, warmup=1)
        assert len(calls) == 4 and t >= 0


class TestFig14FromFig11:
    def test_derivation(self):
        fig11_rows = [
            {"query": "Q3", "storage": "disk", "n_fragments": 400,
             "nops_s": 10.0, "ps_s": 1.0, "cap_s": 12.0},
            {"query": "Q3", "storage": "disk", "n_fragments": 4000,
             "nops_s": 10.0, "ps_s": 0.5, "cap_s": 100.0},
            {"query": "Q3", "storage": "mem", "n_fragments": 400,
             "nops_s": 1.0, "ps_s": 1.0, "cap_s": 1.0},
        ]
        rows = run_from_fig11(fig11_rows, storage="disk")
        assert all(r["query"] == "Q3" for r in rows)
        # n=1: NoPS (10) < PS400 (13) < PS4000 (100.5) -> NoPS first
        assert rows[0]["option"] == "No-PS" and rows[0]["from_runs"] == 1
        # eventually PS4000 (smallest C_use) wins
        assert rows[-1]["option"] == "PS4000" and rows[-1]["to_runs"] == "inf"
        assert "Fig. 14" in format_table(rows)

    def test_storage_filter(self):
        fig11_rows = [
            {"query": "Q3", "storage": "mem", "n_fragments": 400,
             "nops_s": 1.0, "ps_s": 0.1, "cap_s": 0.1},
        ]
        assert run_from_fig11(fig11_rows, storage="disk") == []


class TestT9:
    def test_runs_and_is_fast(self):
        rows = run_t9(repeat=2)
        assert {r["check"] for r in rows} == {"safety", "reuse"}
        # the paper's conclusion: checks are negligible (they measured
        # ~20ms; allow a loose bound here)
        assert all(r["ms_per_check"] < 200 for r in rows)


class TestFragmentId:
    """The Fig. 12a INIT column: both Spark methods agree with the
    driver-side map ``RangePartition.fragment_of_series``."""

    def test_boundaries(self, spark):
        # fragments: (-inf,2], (2,3], (3,inf)
        sdf = spark.createDataFrame(pd.DataFrame({"a": [1, 2, 3, 4]}))
        for method in ("case", "bsearch"):
            f = fragment_id(sdf["a"], (2, 3), method)
            assert [r[0] for r in sdf.select(f).collect()] == [0, 0, 1, 2], method

    def test_case_and_bsearch_agree(self, spark):
        # the two Spark INIT methods of the Fig. 12a table
        df = pd.DataFrame({"a": [0, 2, 3, 5, 7, 8, 11]})
        sdf = spark.createDataFrame(df)
        exp = list(RangePartition("r", "a", (2, 5, 8)).fragment_of_series(df["a"]))
        for method in ("case", "bsearch"):
            f = fragment_id(sdf["a"], (2, 5, 8), method)
            assert [r[0] for r in sdf.select(f).collect()] == exp, method
