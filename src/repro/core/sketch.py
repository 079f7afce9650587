"""Provenance sketches (paper Def. 3).

A sketch is the subset of a range partition's fragments that covers the
query's provenance in one relation. The paper encodes sketches as
bitvectors and unions them with a BITOR aggregate; here capture maps
the raw sketch keys to fragment ids once, on the driver
(``repro.core.capture``), so a sketch is a plain fragment set. The
bitset encoding and its merge strategies (Sec. 7.3) live with their
micro-benchmark in ``repro.experiments.fig12_capture_opts``.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.ranges import RangePartition


@dataclass(frozen=True)
class ProvenanceSketch:
    """A provenance sketch P for one relation (Def. 3)."""

    partition: RangePartition
    fragments: frozenset[int]

    def __post_init__(self):
        bad = [f for f in self.fragments if not 0 <= f < self.partition.n_fragments]
        if bad:
            raise ValueError(f"fragment ids out of range: {bad}")

    @property
    def relation(self) -> str:
        return self.partition.relation

    @property
    def attr(self) -> str:
        return self.partition.attr

    def selectivity(self) -> float:
        """Fraction of fragments covered — with equi-depth partitions
        this approximates the fraction of *rows* covered (Fig. 9)."""
        return len(self.fragments) / self.partition.n_fragments
