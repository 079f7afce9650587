"""T2/T3 / paper Fig. 12 — capture-optimization micro-benchmarks.

Fig. 12a (singleton-sketch creation): assign every tuple its fragment
id via a linear CASE chain vs binary search over the range boundaries,
at increasing partition sizes. The paper sees ~2 orders of magnitude
between them at PS10K; the CASE chain is capped here because a 10K-arm
``F.when`` chain also blows up Catalyst plan compilation.

Fig. 12b (sketch merging): union n singleton sketches into one
bitvector (one bit per fragment, numpy uint64 words standing in for
machine words — the paper's encoding, Sec. 7)

* ``merge_naive``  — materialize a bitvector per singleton, OR pairwise
  with a fresh allocation each step (unoptimized Postgres ``bit_or``);
* ``merge_delay``  — propagate plain fragment ids, set all bits at the
  merge point (paper's *delay*);
* ``merge_nocopy`` — word-at-a-time vectorized OR with no intermediate
  copies (paper's *No-copy*).

The pipeline itself never builds a bitvector: capture maps sketch keys
to a fragment set on the driver (``repro.core.capture``).
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro.experiments.common import Dataset, fmt_table, timed

INIT_COLUMNS = ("method", "n_fragments", "seconds")
MERGE_COLUMNS = ("method", "n_fragments", "n_singletons", "seconds")

_WORD = 64


def fragment_id(c: Column, boundaries, method: str) -> Column:
    """The fragment index of each value of ``c`` under right-closed
    cuts ``boundaries`` (the per-tuple INIT step of Sec. 7.1), by the
    paper's two implementations: ``"case"``, a linear CASE chain, or
    ``"bsearch"``, a binary search over the cuts (Sec. 7.3), here numpy
    ``searchsorted`` in a vectorized pandas UDF. Both agree with
    ``RangePartition.fragment_of_series`` on non-NULL values."""
    if method == "case":
        if not boundaries:
            return F.lit(0)
        expr = F.when(c <= F.lit(boundaries[0]), 0)
        for i, b in enumerate(boundaries[1:], 1):
            expr = expr.when(c <= F.lit(b), i)
        return expr.otherwise(len(boundaries)).cast("int")
    bnds = np.asarray(boundaries)

    @pandas_udf("int")
    def _frag(s: pd.Series) -> pd.Series:
        return pd.Series(
            np.searchsorted(bnds, s.to_numpy(), side="left").astype("int32"),
            index=s.index,
        )

    return _frag(c)


def init_plan(ds: Dataset, crimes: DataFrame, n_frag: int, method: str) -> DataFrame:
    """Fragment-id assignment over the crimes table, forced to execute
    by a global max aggregate (Sec. 7.1 INIT)."""
    part = ds.partition("crimes", "cr_id", n_frag)
    frag = fragment_id(F.col("cr_id"), part.boundaries, method)
    return crimes.select(frag.alias("frag")).agg(F.max("frag").alias("mx"))


def run_init(spark, ds: Dataset, *, n_frags=(32, 1000, 10000), case_cap=1000, reps=3) -> list[dict]:
    rows = []
    for method in ("case", "bsearch"):
        for n in n_frags:
            if method == "case" and n > case_cap:
                continue
            plan = init_plan(ds, ds.mem["crimes"], n, method)
            secs = timed(plan.collect, reps=reps)
            rows.append({"method": method, "n_fragments": n, "seconds": secs})
    return rows


def n_words(n_fragments: int) -> int:
    return (n_fragments + _WORD - 1) // _WORD


def fragments_to_bits(fragments: Iterable[int], n_fragments: int) -> np.ndarray:
    """The bitvector of a fragment set."""
    bits = np.zeros(n_words(n_fragments), dtype=np.uint64)
    for f in fragments:
        bits[f // _WORD] |= np.uint64(1) << np.uint64(f % _WORD)
    return bits


def bits_to_fragments(bits: np.ndarray) -> frozenset[int]:
    """The fragment set of a bitvector."""
    out = []
    for w, word in enumerate(bits):
        word = int(word)
        while word:
            b = word & -word
            out.append(w * _WORD + b.bit_length() - 1)
            word ^= b
    return frozenset(out)


def merge_naive(singleton_ids: Sequence[int], n_fragments: int) -> np.ndarray:
    """Expand each singleton into a full bitvector, then OR pairwise,
    allocating a new vector per step (Postgres's unoptimized bit_or)."""
    acc = np.zeros(n_words(n_fragments), dtype=np.uint64)
    for fid in singleton_ids:
        single = np.zeros(n_words(n_fragments), dtype=np.uint64)
        single[fid // _WORD] = np.uint64(1) << np.uint64(fid % _WORD)
        acc = acc | single  # fresh allocation each iteration
    return acc


def merge_delay(singleton_ids: Sequence[int], n_fragments: int) -> np.ndarray:
    """Propagate plain ids; set bits once at the merge point into a
    single accumulator (no intermediate bitvectors), one id at a time —
    the paper's *delay* method."""
    acc = np.zeros(n_words(n_fragments), dtype=np.uint64)
    for fid in set(int(i) for i in singleton_ids):
        acc[fid // _WORD] |= np.uint64(1) << np.uint64(fid % _WORD)
    return acc


def merge_nocopy(singleton_ids: Sequence[int], n_fragments: int) -> np.ndarray:
    """*delay* plus word-at-a-time vectorized OR with no per-id work
    and no copies — the paper's *No-copy* method on top of delay."""
    acc = np.zeros(n_words(n_fragments), dtype=np.uint64)
    ids = np.unique(np.asarray(singleton_ids, dtype=np.int64))
    # unbuffered OR: several ids land in the same word
    np.bitwise_or.at(
        acc, ids // _WORD, np.uint64(1) << (ids % _WORD).astype(np.uint64)
    )
    return acc


def run_merge(
    spark, ds: Dataset, *, n_frags=(32, 1000, 10000), n_singletons=200_000, reps=3
) -> list[dict]:
    g = np.random.default_rng(0)
    rows = []
    for n in n_frags:
        ids = g.integers(0, n, n_singletons)
        for method, fn in (
            ("naive", lambda: merge_naive(ids[:20_000], n)),
            ("delay", lambda: merge_delay(ids, n)),
            ("nocopy", lambda: merge_nocopy(ids, n)),
        ):
            secs = timed(fn, reps=reps)
            count = 20_000 if method == "naive" else n_singletons
            # report per-singleton cost normalized to the full workload
            rows.append(
                {
                    "method": method,
                    "n_fragments": n,
                    "n_singletons": count,
                    "seconds": secs * (n_singletons / count),
                }
            )
    return rows


def format_init_table(rows) -> str:
    return fmt_table(
        rows, INIT_COLUMNS, "T2 (Fig. 12a): singleton creation, CASE vs binary search"
    )


def format_merge_table(rows) -> str:
    return fmt_table(
        rows,
        MERGE_COLUMNS,
        "T3 (Fig. 12b): sketch merging, naive vs delay vs no-copy "
        "(seconds normalized to 200k singletons)",
    )
