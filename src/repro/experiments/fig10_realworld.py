"""T7 / paper Fig. 10 — PBDS on the real-world workloads.

For each crimes/movies/Stack-Overflow query: plain runtime, runtime
with the sketch, the runtime improvement %, and the capture overhead
as a factor of the plain runtime (the paper reports improvements of
30-98 % and capture factors between ~-0.14x and ~3x; these queries
have no selection conditions, so every input row needs a singleton
sketch).

``PSMIX`` for crimes means "one fragment per distinct group-by value"
(the paper's strongly-correlated geographic attributes); movies/SOF
use 1000-fragment equi-depth partitions.
"""
from __future__ import annotations

from repro.core.capture import capture_sketch
from repro.core.use import apply_sketches
from repro.experiments.common import Dataset, fmt_table, query_seconds, timed
from repro.workloads import crimes as WC
from repro.workloads import movies as WM
from repro.workloads import sof as WS

COLUMNS = (
    "query", "n_fragments", "nops_s", "ps_s", "improvement_pct", "cap_factor",
)


def _queries(ds_crimes, ds_movies, ds_sof):
    """(name, query, dataset, sketch_attrs, n_frag) per workload query."""
    out = []
    # crimes thresholds scale with the generator: C-Q2 counts blocks
    # with a count in the top tail, like the paper's 10000-crime blocks
    n_crimes = len(ds_crimes.pdb["crimes"])
    cq2_t = max(20, n_crimes // 100)
    out.append(("C-Q1", WC.cq1(), ds_crimes, WC.SKETCH_ATTRS["C-Q1"], "mix"))
    out.append(("C-Q2", WC.cq2(cq2_t), ds_crimes, WC.SKETCH_ATTRS["C-Q2"], "mix"))
    n_ratings = len(ds_movies.pdb["ratings"])
    mq2_t = max(10, n_ratings // 500)
    out.append(("M-Q1", WM.mq1(), ds_movies, WM.SKETCH_ATTRS["M-Q1"], 1000))
    out.append(("M-Q2", WM.mq2(mq2_t), ds_movies, WM.SKETCH_ATTRS["M-Q2"], 1000))
    out.append(("M-Q3", WM.mq3(), ds_movies, WM.SKETCH_ATTRS["M-Q3"], 1000))
    n_comments = len(ds_sof.pdb["comments"])
    lo = max(5, n_comments // 2000)
    out.append(("S-Q1", WS.sq1(), ds_sof, WS.SKETCH_ATTRS["S-Q1"], 1000))
    out.append(("S-Q2", WS.sq2(), ds_sof, WS.SKETCH_ATTRS["S-Q2"], 1000))
    out.append(("S-Q4", WS.sq4(), ds_sof, WS.SKETCH_ATTRS["S-Q4"], 1000))
    out.append(("S-Q5", WS.sq5(lo, lo * 2), ds_sof, WS.SKETCH_ATTRS["S-Q5"], 1000))
    return out


def _partitions(ds: Dataset, attrs, n_frag):
    if n_frag == "mix":
        # PSMIX: one fragment per distinct value of the group-by attr
        return {
            rel: ds.partition(rel, attr, ds.pdb[rel][attr].nunique())
            for rel, attr in attrs.items()
        }
    return ds.partitions(attrs, n_frag)


def run(spark, ds_crimes, ds_movies, ds_sof, *, reps: int = 3) -> list[dict]:
    rows = []
    for name, q, ds, attrs, n_frag in _queries(ds_crimes, ds_movies, ds_sof):
        tables = ds.disk
        parts = _partitions(ds, attrs, n_frag)
        nops = query_seconds(q, tables, reps=reps)
        sketches = capture_sketch(q, tables, parts)
        cap = timed(lambda: capture_sketch(q, tables, parts), reps=reps)
        ps = query_seconds(apply_sketches(q, sketches), tables, reps=reps)
        rows.append(
            {
                "query": name,
                "n_fragments": max(p.n_fragments for p in parts.values()),
                "nops_s": nops,
                "ps_s": ps,
                "improvement_pct": 100.0 * (nops - ps) / nops,
                "cap_factor": (cap - nops) / nops,
            }
        )
    return rows


def format_table(rows) -> str:
    return fmt_table(
        rows,
        COLUMNS,
        "T7 (Fig. 10): real-world workloads — PBDS improvement and capture overhead",
    )
