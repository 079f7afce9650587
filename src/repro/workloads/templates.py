"""Parameterized query templates (paper Sec. 6).

A ``Template`` is an IR tree containing ``Param`` nodes; ``instance``
substitutes a binding, yielding a concrete query. ``sample_bindings``
draws parameter values from per-parameter normal distributions —
exactly how the paper generates its end-to-end workloads (Sec. 9.5:
normal-distributed parameter values per template, interval parameters
drawn as start + size).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.algebra.ops import Op


@dataclass(frozen=True)
class ParamSpec:
    """Distribution of one parameter: N(mean, sdv), clipped and
    rounded to int when ``integral``."""

    name: str
    mean: float
    sdv: float
    lo: Optional[float] = None
    hi: Optional[float] = None
    integral: bool = True

    def draw(self, g: np.random.Generator) -> Any:
        v = g.normal(self.mean, self.sdv)
        if self.lo is not None:
            v = max(self.lo, v)
        if self.hi is not None:
            v = min(self.hi, v)
        return int(round(v)) if self.integral else float(v)


@dataclass(frozen=True)
class Template:
    """A parameterized query with sketch metadata."""

    name: str
    ir: Op
    params: tuple[ParamSpec, ...] = ()
    # relation -> safe sketch attribute (verified by tests via Sec. 5)
    sketch_attrs: Mapping[str, str] = field(default_factory=dict)

    def instance(self, **bindings) -> Op:
        # validate against the IR's parameters: sampled spec names may
        # be transformed into them (e.g. S-Q5's lo+width -> lo, hi)
        missing = self.ir.params() - set(bindings)
        if missing:
            raise ValueError(f"unbound params: {sorted(missing)}")
        return self.ir.bind(bindings)

    def sample_bindings(self, g: np.random.Generator) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for p in self.params:
            out[p.name] = p.draw(g)
        return out
