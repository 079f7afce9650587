"""Sketch reuse across instances of a parameterized query (Sec. 6).

Given two instances Q (for which a safe sketch PS was captured) and Q'
(the incoming query) of the same template T, Thm. 3 states that

    ge(Q', Q)  AND  uconds(Q', Q)   ==>   PS is safe for Q'

because the two conditions imply provenance containment
P(Q', D) <= P(Q, D) for every database D (Lem. 8/9) and sketches are
monotone in the provenance (Lem. 4/5/6).

Naming convention: unprimed attribute variables refer to Q, primed
(``a + PRIME``) to Q'. ``Psi`` maps attr -> op with ``a op a'``.

Unlike the safety rules, selections are *not* checked locally: their
conditions may be spread over several operators, so all of pred(Q')
-> pred(Q) is tested at once by ``uconds`` (the paper's
sigma_{a=20}(sigma_{a>30}) example). Aggregations compare only the
non-group-by conjuncts (conditions (1) and (2) in Fig. 4b); a top-k
needs both of its inputs to hold the same tuples, so it compares all of
pred() in both directions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.algebra.expr import Col, Expr, Lit
from repro.algebra.ops import (
    Aggregate,
    CrossProduct,
    Distinct,
    Join,
    Op,
    Project,
    Select,
    TableAccess,
    TopK,
    Union,
)
from repro.core.safety import (
    Psi,
    Stats,
    _project_relation,
    _union_psi,
    conds,
    expr_conjuncts,
    pred_conjuncts,
    preserved,
    prime,
    psi_atoms,
)
from repro.solver import implies


@dataclass
class ReuseResult:
    reusable: bool
    psi: Psi = field(default_factory=dict)
    reason: str = ""


def non_grp_pred(q: Op, group_by: Sequence[str], stats: Optional[Stats]) -> list[Expr]:
    """pred(Q) without conjuncts that only mention group-by attrs."""
    g = set(group_by)
    return [
        c for c in pred_conjuncts(q, stats) if not (c.columns() and c.columns() <= g)
    ]


def _implications(
    psi: Psi, q_old: Op, q_new: Op, p_old: list[Expr], p_new: list[Expr]
) -> tuple[bool, bool]:
    """Under Psi and both sides' expr(): (p_old -> p_new', p_new' -> p_old),
    where ``p_old`` holds over ``q_old`` and ``p_new`` over ``q_new``."""
    base = (
        psi_atoms(psi)
        + expr_conjuncts(q_old)
        + [prime(e) for e in expr_conjuncts(q_new)]
    )
    p_new = [prime(e) for e in p_new]
    return implies(base + p_old, p_new), implies(base + p_new, p_old)


def ge(q_new: Op, q_old: Op, stats: Optional[Stats] = None) -> ReuseResult:
    """ge(Q', Q) of Fig. 4 — Q' = q_new (primed), Q = q_old."""
    if type(q_new) is not type(q_old):
        return ReuseResult(False, {}, "instances have different shapes")
    if isinstance(q_old, TableAccess):
        if q_new.name != q_old.name:
            return ReuseResult(False, {}, "different base relations")
        return ReuseResult(True, {a: "=" for a in q_old.schema()})
    if isinstance(q_old, Select):
        r = ge(q_new.child, q_old.child, stats)
        return r  # selection conditions deferred to uconds
    if isinstance(q_old, Project):
        r = ge(q_new.child, q_old.child, stats)
        if not r.reusable:
            return r
        psi: Psi = dict(r.psi)  # accumulate inner attrs (Example 7)
        for (e_new, a_new), (e_old, a_old) in zip(q_new.items, q_old.items):
            rel = _project_relation(e_old, r.psi)
            if rel is not None:
                psi[a_old] = rel
            else:
                psi.pop(a_old, None)
        return ReuseResult(True, psi)
    if isinstance(q_old, Distinct):
        r = ge(q_new.child, q_old.child, stats)
        if not r.reusable:
            return r
        ok = preserved(q_old.schema(), r.psi, q_old.child, stats, q_new.child)
        return ReuseResult(ok, r.psi, "" if ok else "distinct attrs not preserved")
    if isinstance(q_old, TopK):
        r = ge(q_new.child, q_old.child, stats)
        if not r.reusable:
            return r
        if q_new.k != q_old.k or q_new.order != q_old.order:
            return ReuseResult(False, r.psi, "top-k spec differs")
        # the sketch covers Q's top k; it answers Q' only when both
        # top-k inputs hold the same tuples
        same = _implications(
            r.psi, q_old.child, q_new.child,
            pred_conjuncts(q_old.child, stats), pred_conjuncts(q_new.child, stats),
        )
        if not all(same):
            return ReuseResult(False, r.psi, "top-k inputs differ")
        order = [o for o, _ in q_old.order]
        ok = preserved(order, r.psi, q_old.child, stats, q_new.child)
        return ReuseResult(ok, r.psi, "" if ok else "top-k order not preserved")
    if isinstance(q_old, Aggregate):
        return _ge_aggregate(q_new, q_old, stats)
    if isinstance(q_old, Union):
        rl = ge(q_new.left, q_old.left, stats)
        rr = ge(q_new.right, q_old.right, stats)
        if not (rl.reusable and rr.reusable):
            return ReuseResult(False, {}, rl.reason or rr.reason)
        return ReuseResult(True, _union_psi(q_old, rl.psi, rr.psi))
    if isinstance(q_old, (Join, CrossProduct)):
        rl = ge(q_new.left, q_old.left, stats)
        rr = ge(q_new.right, q_old.right, stats)
        if not (rl.reusable and rr.reusable):
            return ReuseResult(False, {}, rl.reason or rr.reason)
        psi = {**rl.psi, **rr.psi}
        if isinstance(q_old, CrossProduct):
            return ReuseResult(True, psi)
        for a, b in q_old.split()[0]:
            if not (
                preserved([a], rl.psi, q_old.left, stats, q_new.left)
                and preserved([b], rr.psi, q_old.right, stats, q_new.right)
            ):
                return ReuseResult(False, psi, f"join attrs not preserved: {a}={b}")
        return ReuseResult(True, psi)
    raise TypeError(type(q_old).__name__)


def _ge_aggregate(q_new: Aggregate, q_old: Aggregate, stats) -> ReuseResult:
    r = ge(q_new.child, q_old.child, stats)
    if not r.reusable:
        return r
    for g in q_old.group_by:
        if not preserved([g], r.psi, q_old.child, stats, q_new.child):
            return ReuseResult(False, r.psi, f"group-by attr not preserved: {g}")
    # conditions (1) and (2) on the non-group-by predicates
    cond1, cond2 = _implications(
        r.psi, q_old.child, q_new.child,
        non_grp_pred(q_old.child, q_old.group_by, stats),
        non_grp_pred(q_new.child, q_new.group_by, stats),
    )
    child_conds = conds(q_old.child, stats)
    psi: Psi = dict(r.psi)  # accumulate inner attrs (Example 7)
    for s in q_old.aggs:
        if cond1 and cond2:
            psi[s.alias] = "="
        elif cond2 and s.func in ("sum", "min") and s.attr and implies(
            child_conds, Col(s.attr).lt(Lit(0))
        ):
            psi[s.alias] = "<="
        elif cond2 and (
            s.func == "count"
            or (
                s.func in ("sum", "max")
                and s.attr
                and implies(child_conds, Col(s.attr).gt(Lit(0)))
            )
        ):
            psi[s.alias] = ">="
        else:
            psi.pop(s.alias, None)  # relationship undecided
    return ReuseResult(True, psi)


def uconds(q_new: Op, q_old: Op, psi: Psi, stats: Optional[Stats] = None) -> bool:
    """uconds(Q', Q): Psi ^ pred(Q') ^ expr(Q') ^ expr(Q) -> pred(Q)."""
    hyp = (
        psi_atoms(psi)
        + [prime(e) for e in pred_conjuncts(q_new, stats)]
        + [prime(e) for e in expr_conjuncts(q_new)]
        + expr_conjuncts(q_old)
    )
    return implies(hyp, pred_conjuncts(q_old, stats))


def reusable(q_new: Op, q_old: Op, stats: Optional[Stats] = None) -> ReuseResult:
    """Thm. 3: can the (safe) sketch captured for q_old answer q_new?"""
    r = ge(q_new, q_old, stats)
    if not r.reusable:
        return r
    if not uconds(q_new, q_old, r.psi, stats):
        return ReuseResult(False, r.psi, "uconds: new predicates do not imply old")
    return ReuseResult(True, r.psi)
