"""The benchmark's workloads, driven closed loop by one client.

Each workload builds its data from the run's seed with the repo's own
generators, then runs over the same prepared state:

* ``warmup`` — one pass over every kind of operation the workload runs,
  so JVM, Catalyst and Python-worker start-up stay out of measurements;
* ``work(size)`` — a fixed amount of work: ``size`` rounds over the
  TPC-H queries, or the first ``size`` queries of a template stream.
  A timed run's size comes from ``--seconds`` (``size_for``); the traced
  run uses the smaller ``UNIT``. A fixed amount, rather than "until the
  clock runs out", keeps the mix of operations, and so every median and
  every counter, the same from run to run.

The query stream of a self-tuning workload is fixed (its own generator
seed), like the TPC-H query set: the run's seed varies the data, not the
sequence of plain/capture/use decisions that dominates a stream's cost.

Every answer is kept as an ``Execution`` and compared with plain Q after
the work (``Outcome.verify``), never inside the measured window.
"""
from __future__ import annotations

import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pandas as pd

import repro.algebra.compile_spark as compile_mod
from repro import synth_data
from repro.core.ranges import equi_depth
from repro.core.safety import choose_safe_attributes
from repro.core.selftune import SelfTuningDriver
from repro.experiments.common import SOF_CLUSTER, TPCH_CLUSTER
from repro.oracle import _canon
from repro.physical.stats import table_stats_pandas
from repro.physical.storage import read_table, write_clustered
from repro.workloads import crimes, sof, tpch

from probe import Execution, Probe


class _PandasSink:
    """Stands in for a SparkSession: the TPC-H generators build a pandas
    frame and hand it to ``createDataFrame``; this returns it as is."""

    @staticmethod
    def createDataFrame(pdf):
        return pdf


def _seed(seed: int, table_default: int) -> int:
    """Per-table generator seed: distinct tables, distinct runs."""
    return seed * 1000 + table_default


@dataclass
class Pair:
    """An answer and the plain-Q run it must equal."""

    label: str
    answer: Optional[Execution]
    reference: Optional[Execution]
    sketched: bool  # the answer went through a sketch (Q[P] != Q)
    instance: object = None
    tables: object = None


@dataclass
class Outcome:
    """Samples and answers of one phase."""

    answer: list[float] = field(default_factory=list)
    plain: list[float] = field(default_factory=list)
    capture: list[float] = field(default_factory=list)
    pairs: list[Pair] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0
    mismatches: int = 0
    elapsed: float = 0.0
    actions: Counter = field(default_factory=Counter)
    store_size: int = 0
    counterfactual_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches

    def error(self, what: str) -> None:
        self.errors += 1
        if self.errors <= 3:
            print(f"perfbench: {what} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def verify(self) -> None:
        """Compare each answer with plain Q as a multiset of rows."""
        for p in self.pairs:
            ref = p.reference
            if ref is None and p.instance is not None:
                rows = compile_mod.compile_op(p.instance, p.tables).collect()
                ref = Execution("plain", p.instance, rows, 0.0, p.answer.columns if p.answer else ())
            if p.answer is None or ref is None or not same_rows(p.answer, ref):
                self.mismatches += 1
                if self.mismatches <= 3:
                    print(f"perfbench: wrong answer for {p.label}", file=sys.stderr)


def same_rows(a: Execution, b: Execution) -> bool:
    """Multiset equality with floats rounded as the DuckDB oracle does."""
    if sorted(a.columns) != sorted(b.columns):
        return False
    fa = pd.DataFrame([tuple(r) for r in a.rows], columns=list(a.columns))
    fb = pd.DataFrame([tuple(r) for r in b.rows], columns=list(b.columns))
    try:
        pd.testing.assert_frame_equal(_canon(fa), _canon(fb), check_dtype=False)
    except AssertionError:
        return False
    return True


@dataclass
class Context:
    spark: object
    probe: Probe
    seed: int
    workdir: str


class Workload:
    name = ""
    why = ""

    def setup(self, ctx: Context, rep: int):
        raise NotImplementedError

    def warmup(self, ctx: Context, state) -> None:
        raise NotImplementedError

    def work(self, ctx: Context, state, size: int) -> Outcome:
        raise NotImplementedError

    def size_for(self, seconds: float) -> int:
        """Work size that takes about ``seconds`` on a 4-core host."""
        return max(1, round(seconds / self.SECONDS_PER_STEP))


# --- tpch-disk --------------------------------------------------------


class TpchDisk(Workload):
    name = "tpch-disk"
    why = (
        "capture once, answer many (Fig. 11/14): Q1 control plus Q3/Q10/Q15/"
        "Q18/Q19 sketches at PS400 over clustered Parquet; core.use and "
        "physical.storage do the work"
    )
    N_FRAG = 400
    TABLES = {"lineitem": 0, "orders": 1, "customer": 2, "part": 5}
    SECONDS_PER_STEP = 7.0  # one round: six plain Q and five Q[P]
    UNIT = 1

    def __init__(self, sf: float = 0.01):
        self.sf = sf

    def setup(self, ctx: Context, rep: int):
        probe = ctx.probe
        gen = {
            "lineitem": synth_data.lineitem,
            "orders": synth_data.orders,
            "customer": synth_data.customer,
            "part": synth_data.part,
        }
        pdb = {
            name: probe.call(
                "generate", fn, _PandasSink, sf=self.sf, seed=_seed(ctx.seed, self.TABLES[name])
            )
            for name, fn in gen.items()
        }
        tables = {}
        for name, pdf in pdb.items():
            path = os.path.join(ctx.workdir, f"tpch-{rep}", name)
            probe.call("write", _write, ctx.spark, pdf, path, TPCH_CLUSTER[name])
            tables[name] = probe.call("read", read_table, ctx.spark, path)
        stats = probe.call("stats", table_stats_pandas, pdb)
        queries = tpch.all_queries()
        parts: dict[str, dict] = {}
        cuts: dict[tuple[str, str], object] = {}
        for qn, q in queries.items():
            cands = {r: [a] for r, a in tpch.SKETCH_ATTRS[qn].items()}
            safe = probe.call("safety", choose_safe_attributes, q, cands, stats) if cands else {}
            for r, a in safe.items():
                if (r, a) not in cuts:
                    cuts[(r, a)] = probe.call("partition", equi_depth, pdb[r][a], r, a, self.N_FRAG)
            parts[qn] = {r: cuts[(r, a)] for r, a in safe.items()}
        return {"tables": tables, "queries": queries, "parts": parts}

    def warmup(self, ctx: Context, state) -> None:
        self.work(ctx, state, 1)

    def work(self, ctx: Context, state, size: int) -> Outcome:
        """Capture every sketch once, each timed on its own, then ``size``
        rounds of plain Q and Q[P] over all queries; ``elapsed`` covers
        the rounds, not the captures."""
        probe, tables, out = ctx.probe, state["tables"], Outcome()
        sketches: dict[str, dict] = {}
        for qn, q in state["queries"].items():
            if not state["parts"][qn]:
                sketches[qn] = {}
                continue
            probe.begin_request()
            out.attempted += 1
            t = time.perf_counter()
            try:
                sketches[qn] = probe.capture_sketch(q, tables, state["parts"][qn])
            except Exception:
                out.error(f"capture {qn}")
                continue
            out.capture.append(time.perf_counter() - t)
        t0 = time.perf_counter()
        for qn, q in list(state["queries"].items()) * size:
            plain = self._answer(probe, out, f"plain {qn}", lambda: probe.collect(q, tables))
            if plain is not None:
                out.plain.append(plain.seconds)
            if not sketches.get(qn):
                continue  # Q1, the control: no safe sketch, so Q[P] = Q
            t = time.perf_counter()
            answer = self._answer(
                probe, out, f"Q[P] {qn}",
                lambda: probe.collect(probe.apply_sketches(q, sketches[qn]), tables),
            )
            if answer is not None:
                out.answer.append(time.perf_counter() - t)
                out.pairs.append(Pair(qn, answer, plain, True, q, tables))
        out.elapsed = time.perf_counter() - t0
        return out

    @staticmethod
    def _answer(probe: Probe, out: Outcome, what: str, thunk) -> Optional[Execution]:
        probe.begin_request()
        out.attempted += 1
        try:
            return thunk()
        except Exception:
            out.error(what)
            return None


def _write(spark, pdf, path: str, cluster_by: str) -> None:
    write_clustered(spark.createDataFrame(pdf), path, cluster_by)


def _cache(spark, pdf):
    df = spark.createDataFrame(pdf)
    df.cache().count()
    return df


# --- self-tuning streams ---------------------------------------------


class Stream(Workload):
    """An adaptive ``SelfTuningDriver`` over a seeded template stream."""

    N_FRAG = 256
    WARMUP_QUERIES = 5  # two plain (patience), a capture, then reuse
    STREAM_SEED = 0
    WARMUP_SEED = 1  # a different stream, so the measured one starts cold
    on_disk = True
    cluster: dict[str, str] = {}

    def __init__(self, sf: float):
        self.sf = sf

    def generate(self, seed: int) -> dict[str, pd.DataFrame]:
        raise NotImplementedError

    def template(self, pdb):
        """(template, binding function) sized to the generated data."""
        raise NotImplementedError

    def setup(self, ctx: Context, rep: int):
        probe = ctx.probe
        pdb = probe.call("generate", self.generate, ctx.seed)
        tables = {}
        for name, pdf in pdb.items():
            if self.on_disk:
                path = os.path.join(ctx.workdir, f"{self.name}-{rep}", name)
                probe.call("write", _write, ctx.spark, pdf, path, self.cluster[name])
                tables[name] = probe.call("read", read_table, ctx.spark, path)
            else:
                tables[name] = probe.call("cache", _cache, ctx.spark, pdf)
        stats = probe.call("stats", table_stats_pandas, pdb)
        tmpl, bind = self.template(pdb)
        cands = {r: [a] for r, a in tmpl.sketch_attrs.items()}
        safe = probe.call("safety", choose_safe_attributes, tmpl.ir, cands, stats)
        parts = {
            (r, a): probe.call("partition", equi_depth, pdb[r][a], r, a, self.N_FRAG)
            for r, a in safe.items()
        }
        return {
            "tables": tables, "stats": stats, "template": tmpl, "bind": bind,
            "safe": safe, "parts": parts,
        }

    def warmup(self, ctx: Context, state) -> None:
        self._run(ctx, state, self.WARMUP_SEED, self.WARMUP_QUERIES)

    def work(self, ctx: Context, state, size: int) -> Outcome:
        return self._run(ctx, state, self.STREAM_SEED, size)

    def _run(self, ctx: Context, state, stream_seed: int, n_queries: int) -> Outcome:
        probe, tmpl, out = ctx.probe, state["template"], Outcome()
        driver = SelfTuningDriver(
            state["tables"], {tmpl.name: state["safe"]}, state["parts"],
            stats=state["stats"], strategy="adaptive",
        )
        g = np.random.default_rng(stream_seed)
        t0 = time.perf_counter()
        for n in range(1, n_queries + 1):
            inst = probe.call("instance", lambda: tmpl.instance(**state["bind"](tmpl.sample_bindings(g))))
            first = probe.begin_request()
            out.attempted += 1
            t = time.perf_counter()
            try:
                ev = probe.call("run", driver.run, tmpl.name, inst)
            except Exception:
                out.error(f"{tmpl.name} query {n}")
                continue
            out.answer.append(time.perf_counter() - t)
            out.actions[ev.action] += 1
            if ev.action == "capture":
                out.capture.append(out.answer[-1])
            runs = probe.executions[first:]
            plain = next((e for e in runs if e.kind == "plain" and e.op is inst), None)
            if plain is not None:
                out.plain.append(plain.seconds)
            if ev.action == "plain":
                answer = runs[-1] if runs else None
            else:
                answer = next((e for e in reversed(runs) if e.kind == "qp"), None)
            out.pairs.append(
                Pair(f"{tmpl.name} query {n} ({ev.action})", answer, plain,
                     ev.action != "plain", inst, state["tables"])
            )
        out.elapsed = time.perf_counter() - t0
        out.store_size = len(driver.store.entries)
        out.counterfactual_s = sum(
            getattr(e, "nops_seconds", 0.0) for e in driver.events if e.action != "plain"
        )
        return out


class CrimesStreamMem(Stream):
    name = "crimes-stream-mem"
    why = (
        "C-Q2 stream with narrow parameters on cached in-memory tables: store "
        "reads dominate, single-range sketches, no Parquet and no UDF predicate"
    )
    on_disk = False
    SECONDS_PER_STEP = 0.5
    UNIT = 20

    def __init__(self, sf: float = 0.01):
        super().__init__(sf)

    def generate(self, seed: int):
        return {"crimes": synth_data.crimes_pdf(sf=self.sf, seed=_seed(seed, 10))}

    def template(self, pdb):
        n = len(pdb["crimes"])
        # the narrow regime of the T8 job: thresholds near the top blocks
        return crimes.cq2_template(mean=n / 100, sdv=n / 400), dict


class SofStreamDisk(Stream):
    name = "sof-stream-disk"
    why = (
        "S-Q5 stream with wide parameters on clustered Parquet: store writes "
        "dominate and the store grows, so reuse checks per query grow"
    )
    cluster = SOF_CLUSTER
    SECONDS_PER_STEP = 1.2  # most answers are captures
    UNIT = 10

    def __init__(self, sf: float = 0.0005):
        super().__init__(sf)

    def generate(self, seed: int):
        # the two tables S-Q5 reads
        return {
            "users": synth_data.sof_users_pdf(sf=self.sf, seed=_seed(seed, 14)),
            "comments": synth_data.sof_comments_pdf(sf=self.sf, seed=_seed(seed, 16)),
        }

    def template(self, pdb):
        mean = max(10, len(pdb["comments"]) // 1500)
        tmpl = sof.sq5_template(mean=mean, sdv=mean / 2, width_mean=mean / 2, width_sdv=mean / 10)
        return tmpl, sof.sq5_bindings


WORKLOADS: dict[str, type[Workload]] = {
    TpchDisk.name: TpchDisk,
    CrimesStreamMem.name: CrimesStreamMem,
    SofStreamDisk.name: SofStreamDisk,
}
