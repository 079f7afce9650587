"""Range partitions (paper Def. 2).

A ``RangePartition`` of relation R on attribute a is a list of n
disjoint, covering intervals over the domain of a, stored as the n-1
inner cut points ``boundaries`` (fragment i is the right-closed
interval (b_{i-1}, b_i], with b_{-1} = -inf and b_{n-1} = +inf).

The paper derives the cuts from the DBMS's one-dimensional equi-depth
histograms (Sec. 9.3); ``equi_depth`` does the same from exact pandas
quantiles, so every cut is a value of the column and keeps its type.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class RangePartition:
    """A range partition F_{R,a} with n = len(boundaries)+1 fragments."""

    relation: str
    attr: str
    boundaries: tuple  # sorted inner cut points, len = n_fragments - 1

    @property
    def n_fragments(self) -> int:
        return len(self.boundaries) + 1

    def fragment_of(self, value: Any) -> int:
        """Index of the fragment containing ``value`` (binary search)."""
        return bisect.bisect_left(self.boundaries, value)

    def fragment_of_series(self, s: pd.Series) -> pd.Series:
        """Fragment index per value. A missing value (NULL, NaN) falls
        in the last fragment, where binary search puts a NaN; the
        ``Q[P]`` predicate of that fragment admits NULL
        (``use.sketch_predicate``)."""
        ids = np.full(len(s), self.n_fragments - 1, dtype="int64")
        known = s.notna().to_numpy()
        ids[known] = np.searchsorted(
            np.asarray(self.boundaries), s[known].to_numpy(), side="left"
        )
        return pd.Series(ids, index=s.index)

    def bounds(self, i: int) -> tuple[Optional[Any], Optional[Any]]:
        """(exclusive lower, inclusive upper) of fragment i; ``None``
        marks an unbounded side."""
        if not 0 <= i < self.n_fragments:
            raise IndexError(i)
        lo = self.boundaries[i - 1] if i > 0 else None
        hi = self.boundaries[i] if i < self.n_fragments - 1 else None
        return lo, hi

    def merged_ranges(
        self, fragments: Iterable[int]
    ) -> list[tuple[Optional[Any], Optional[Any]]]:
        """Coalesce adjacent fragments into maximal (lo, hi] ranges —
        the Sec. 8.1 optimization that shrinks the disjunction."""
        ids = sorted(set(fragments))
        out: list[tuple[Optional[Any], Optional[Any]]] = []
        run_start: Optional[int] = None
        prev: Optional[int] = None
        for f in ids:
            if run_start is None:
                run_start = prev = f
            elif f == prev + 1:
                prev = f
            else:
                out.append((self.bounds(run_start)[0], self.bounds(prev)[1]))
                run_start = prev = f
        if run_start is not None:
            out.append((self.bounds(run_start)[0], self.bounds(prev)[1]))
        return out


def equi_depth(
    values: pd.Series, relation: str, attr: str, n_fragments: int
) -> RangePartition:
    """Equi-depth cuts from exact quantiles of a pandas column.

    Duplicate quantiles (heavy hitters) are collapsed, so the actual
    fragment count can be lower than requested — same behaviour as a
    DBMS histogram over skewed data. The cuts come from the non-missing
    values; a NULL falls in the last fragment (``fragment_of_series``).
    """
    if n_fragments < 1:
        raise ValueError("need at least one fragment")
    values = values.dropna()
    qs = [i / n_fragments for i in range(1, n_fragments)]
    if pd.api.types.is_numeric_dtype(values.dtype):
        cuts = np.quantile(values.to_numpy(), qs, method="lower")
    else:
        sv = values.sort_values().to_numpy()
        cuts = [sv[min(len(sv) - 1, int(q * len(sv)))] for q in qs]
    uniq: list = []
    for c in cuts:
        c = c.item() if hasattr(c, "item") else c
        if not uniq or c > uniq[-1]:
            uniq.append(c)
    return RangePartition(relation, attr, tuple(uniq))
