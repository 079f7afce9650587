"""Database statistics: min/max per attribute.

The paper's safety check (Sec. 5) bounds base-attribute values with
``min(a) <= a <= max(a)`` from DBMS statistics; ``table_stats_pandas``
computes these bounds from pandas tables. The partitions, which the
paper derives from the DBMS's equi-depth histograms (Sec. 9.3), are
cut by ``repro.core.ranges.equi_depth``.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import pandas as pd


def table_stats_pandas(
    db: Mapping[str, pd.DataFrame], attrs: Mapping[str, Sequence[str]] | None = None
) -> dict[str, dict[str, tuple]]:
    """{relation: {attr: (min, max)}} for the given (or all orderable)
    attributes."""
    out: dict[str, dict[str, tuple]] = {}
    for rel, df in db.items():
        cols = attrs.get(rel, df.columns) if attrs else df.columns
        st: dict[str, tuple] = {}
        for c in cols:
            if c not in df.columns or len(df) == 0:
                continue
            try:
                lo, hi = df[c].min(), df[c].max()
            except TypeError:
                continue
            lo = lo.item() if hasattr(lo, "item") else lo
            hi = hi.item() if hasattr(hi, "item") else hi
            st[c] = (lo, hi)
        out[rel] = st
    return out

