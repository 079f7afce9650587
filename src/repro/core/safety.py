"""Static sketch-safety checking — gc(Q, X) (paper Sec. 5, Fig. 3).

Given a query Q and candidate sketch attributes X (a map relation ->
attributes), the checker derives bottom-up

* ``pred(Q)``   — conditions every (intermediate) tuple satisfies,
  seeded with database statistics bounds ``min(a) <= a <= max(a)``;
* ``expr(Q)``   — equalities introduced by generalized projections;
* ``Psi_{Q,X}`` — per-attribute relations between the run over the
  sketch instance D_PS and over D (here: a map attr -> one of
  ``"=", "<=", ">="`` relating ``a`` to its primed copy ``a'``);
* ``gc(Q, X)``  — the validity obligations of Fig. 3, discharged by
  ``repro.solver.implies``; ``is_safe`` computes it.

``gc(Q, X)`` valid implies X is *safe* (Thm. 2): for every database,
every sketch over range partitions on X satisfies Q(D_PS) = Q(D).
The procedure is sound, not complete (Thm. 1 rules out completeness).

For top-k queries the rules additionally assume the operator input has
at least C tuples (paper footnote 1); ``SafetyResult.topk_caveat``
surfaces that runtime re-validation obligation. Only Π, δ and ∪ may
consume a top-k's output: which ties and neighbours of the top k a
sketch keeps is not fixed, so a selection, join or aggregation above it
can see different tuples over D_PS than over D.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.algebra.expr import And, Cmp, Col, Expr, Lit, Node, Or
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
from repro.solver import implies
from repro.solver.decide import linearize

PRIME = "__p"

Stats = Mapping[str, Mapping[str, tuple]]


def prime(e: Expr) -> Expr:
    """Rename every column c -> c' (the Q-over-D copy)."""
    if isinstance(e, Col):
        return Col(e.name + PRIME)
    return e.map(prime)


def pred_conjuncts(q: Op, stats: Optional[Stats]) -> list[Expr]:
    """pred(Q) as a list of conjuncts (Sec. 5.2). Disjunctive branches
    (union) are kept as single Or conjuncts; the solver soundly ignores
    them as hypotheses."""
    if isinstance(q, TableAccess):
        out: list[Expr] = []
        if stats and q.name in stats:
            for a, (lo, hi) in stats[q.name].items():
                if a in q.table_schema:
                    out.append(Col(a).ge(Lit(lo)))
                    out.append(Col(a).le(Lit(hi)))
        return out
    if isinstance(q, Select):
        return pred_conjuncts(q.child, stats) + [q.cond]
    if isinstance(q, Join):
        return (
            pred_conjuncts(q.left, stats)
            + pred_conjuncts(q.right, stats)
            + [q.cond]
        )
    if isinstance(q, CrossProduct):
        return pred_conjuncts(q.left, stats) + pred_conjuncts(q.right, stats)
    if isinstance(q, Union):
        l = pred_conjuncts(q.left, stats)
        r = pred_conjuncts(q.right, stats)
        if not l or not r:
            return []
        return [Or(And(*l) if len(l) > 1 else l[0], And(*r) if len(r) > 1 else r[0])]
    if isinstance(q, (Project, Aggregate, Distinct, TopK)):
        return pred_conjuncts(q.child, stats)
    raise TypeError(type(q).__name__)


def expr_conjuncts(q: Op) -> list[Expr]:
    """expr(Q): equalities e_i = b_i from generalized projections."""
    if isinstance(q, TableAccess):
        return []
    if isinstance(q, Project):
        out = expr_conjuncts(q.child)
        for e, a in q.items:
            if isinstance(e, Col) and e.name == a:
                continue
            out.append(Cmp("=", e, Col(a)))
        return out
    if isinstance(q, (Join, CrossProduct)):
        return expr_conjuncts(q.left) + expr_conjuncts(q.right)
    if isinstance(q, Union):
        return []
    if isinstance(q, (Select, Aggregate, Distinct, TopK)):
        return expr_conjuncts(q.child)
    raise TypeError(type(q).__name__)


def conds(q: Op, stats: Optional[Stats]) -> list[Expr]:
    return pred_conjuncts(q, stats) + expr_conjuncts(q)


# Psi: attr -> relation between a (over D_PS) and a' (over D)
Psi = dict  # attr -> "=", "<=", ">="


def psi_atoms(psi: Psi) -> list[Expr]:
    out = []
    for a, op in psi.items():
        out.append(Cmp({"=": "=", "<=": "<=", ">=": ">="}[op], Col(a), Col(a + PRIME)))
    return out


@dataclass
class SafetyResult:
    safe: bool
    psi: Psi = field(default_factory=dict)
    topk_caveat: bool = False
    reason: str = ""


def _x_attrs(q: Op, X: Mapping[str, Sequence[str]]) -> list[str]:
    """X restricted to relations accessed by q, flattened."""
    rels = q.relations()
    out: list[str] = []
    for rel, attrs in X.items():
        if rel in rels:
            out.extend(attrs)
    return out


def _hyp(
    psi: Psi, q: Op, stats: Optional[Stats], q_primed: Optional[Op] = None
) -> list[Expr]:
    """Psi, the conditions of ``q``, and those of ``q_primed`` (default
    ``q``) over primed attributes."""
    primed = conds(q if q_primed is None else q_primed, stats)
    return psi_atoms(psi) + conds(q, stats) + [prime(e) for e in primed]


def preserved(
    attrs, psi: Psi, q: Op, stats: Optional[Stats], q_primed: Optional[Op] = None
) -> bool:
    """Every attribute in ``attrs`` has ``a = a'``: by Psi, or implied
    by ``_hyp(psi, q, stats, q_primed)``."""
    rest = [a for a in attrs if psi.get(a) != "="]
    if not rest:
        return True
    return implies(
        _hyp(psi, q, stats, q_primed), [Cmp("=", Col(a), Col(a + PRIME)) for a in rest]
    )


def _topk_in(q: Node, X: Mapping[str, Sequence[str]]) -> bool:
    """Whether ``q`` contains a top-k over a sketched relation."""
    if isinstance(q, TopK) and _x_attrs(q, X):
        return True
    return any(_topk_in(c, X) for c in q.children() if isinstance(c, Op))


def is_safe(
    q: Op, X: Mapping[str, Sequence[str]], stats: Optional[Stats] = None
) -> SafetyResult:
    """gc(Q, X), the Fig. 3 inference: X is safe for Q (Thm. 2) if the
    result is ``safe``. ``X`` maps relation -> sketch attributes."""
    if isinstance(q, TableAccess) or not _x_attrs(q, X):
        return SafetyResult(True, {a: "=" for a in q.schema()})
    # only Π, δ and ∪ may consume a top-k (module docstring)
    if not isinstance(q, (Project, Distinct, Union)) and any(
        _topk_in(c, X) for c in q.children()
    ):
        return SafetyResult(
            False, reason=f"{type(q).__name__} over a top-k is not supported"
        )
    if isinstance(q, Select):
        r1 = is_safe(q.child, X, stats)
        if not r1.safe:
            return SafetyResult(False, r1.psi, r1.topk_caveat, r1.reason)
        ok = _selection_ok(q.cond, r1.psi, q.child, stats)
        return SafetyResult(
            ok, r1.psi, r1.topk_caveat,
            "" if ok else f"selection condition not preserved: {q.cond.to_sql()}",
        )
    if isinstance(q, Project):
        r1 = is_safe(q.child, X, stats)
        if not r1.safe:
            return r1
        # Psi accumulates entries for attributes of subqueries (names
        # are unique, and e.g. uconds/Example 7 relies on inner attrs)
        psi: Psi = dict(r1.psi)
        for e, a in q.items:
            rel = _project_relation(e, r1.psi)
            if rel is not None:
                psi[a] = rel
            else:
                psi.pop(a, None)
        return SafetyResult(True, psi, r1.topk_caveat)
    if isinstance(q, Distinct):
        r1 = is_safe(q.child, X, stats)
        if not r1.safe:
            return r1
        ok = preserved(q.schema(), r1.psi, q.child, stats)
        return SafetyResult(ok, r1.psi, r1.topk_caveat,
                            "" if ok else "duplicate elimination over non-equal attrs")
    if isinstance(q, TopK):
        r1 = is_safe(q.child, X, stats)
        if not r1.safe:
            return r1
        ok = preserved([o for o, _ in q.order], r1.psi, q.child, stats)
        return SafetyResult(ok, r1.psi, True,
                            "" if ok else "top-k order attribute not preserved")
    if isinstance(q, Aggregate):
        return _gc_aggregate(q, X, stats)
    if isinstance(q, Union):
        rl = is_safe(q.left, X, stats)
        rr = is_safe(q.right, X, stats)
        if not (rl.safe and rr.safe):
            return SafetyResult(False, {}, rl.topk_caveat or rr.topk_caveat,
                                rl.reason or rr.reason)
        return SafetyResult(True, _union_psi(q, rl.psi, rr.psi),
                            rl.topk_caveat or rr.topk_caveat)
    if isinstance(q, (Join, CrossProduct)):
        rl = is_safe(q.left, X, stats)
        rr = is_safe(q.right, X, stats)
        if not (rl.safe and rr.safe):
            return SafetyResult(False, {}, rl.topk_caveat or rr.topk_caveat,
                                rl.reason or rr.reason)
        psi = {**rl.psi, **rr.psi}
        caveat = rl.topk_caveat or rr.topk_caveat
        if isinstance(q, CrossProduct):
            return SafetyResult(True, psi, caveat)
        pairs, residual = q.split()
        for a, b in pairs:
            if not (
                preserved([a], rl.psi, q.left, stats)
                and preserved([b], rr.psi, q.right, stats)
            ):
                return SafetyResult(False, psi, caveat,
                                    f"join attribute not preserved: {a} = {b}")
        for c in residual:
            # the selection-style check
            if not _selection_ok(c, psi, q, stats):
                return SafetyResult(False, psi, caveat,
                                    f"join condition not preserved: {c.to_sql()}")
        return SafetyResult(True, psi, caveat)
    raise TypeError(type(q).__name__)


def _selection_ok(cond: Expr, psi: Psi, below: Op, stats: Optional[Stats]) -> bool:
    """Psi ^ conds ^ conds' ^ theta -> theta' (Fig. 3 selection rule)."""
    if all(psi.get(c) == "=" for c in cond.columns()):
        return True
    hyp = _hyp(psi, below, stats) + [cond]
    return implies(hyp, prime(cond))


def _union_psi(q: Union, psi_l: Psi, psi_r: Psi) -> Psi:
    """Psi of a union from its inputs' Psi: an output attribute keeps
    the strongest relation that both inputs guarantee (Fig. 3 and
    Fig. 4 share this rule)."""
    psi: Psi = {}
    for la, ra in zip(q.left.schema(), q.right.schema()):
        pl, pr = psi_l.get(la), psi_r.get(ra)
        if pl == "=" and pr == "=":
            psi[la] = "="
        elif pl in ("=", "<=") and pr in ("=", "<="):
            psi[la] = "<="
        elif pl in ("=", ">=") and pr in ("=", ">="):
            psi[la] = ">="
    return psi


def _project_relation(e: Expr, psi: Psi) -> Optional[str]:
    """Psi entry for a projected expression: equality if every input is
    preserved; a direction if the expression is linear and monotone in
    the inputs' directions."""
    cols = e.columns()
    if all(psi.get(c) == "=" for c in cols):
        return "="
    if any(c not in psi for c in cols):
        return None
    lin = linearize(e)
    if lin is None:
        return None
    coeffs, _ = lin
    directions = set()
    for c, coef in coeffs.items():
        p = psi.get(c)
        if p == "=" or coef == 0:
            continue
        if (p == "<=" and coef > 0) or (p == ">=" and coef < 0):
            directions.add("<=")
        else:
            directions.add(">=")
    if len(directions) == 1:
        return directions.pop()
    if not directions:
        return "="
    return None


def _gc_aggregate(q: Aggregate, X, stats) -> SafetyResult:
    r1 = is_safe(q.child, X, stats)
    if not r1.safe:
        return r1
    for g in q.group_by:
        if not preserved([g], r1.psi, q.child, stats):
            return SafetyResult(False, r1.psi, r1.topk_caveat,
                                f"group-by attribute not preserved: {g}")
    child_conds = conds(q.child, stats)
    xs = _x_attrs(q.child, X)
    # case (i): every sketch attribute is (equated to) a group-by attr;
    # groups are then fully inside or outside the sketch instance.
    def equated_to_group(x: str) -> bool:
        if x in q.group_by:
            return True
        return any(
            implies(child_conds, Cmp("=", Col(x), Col(g))) for g in q.group_by
        )

    case_i = all(equated_to_group(x) for x in xs)
    psi: Psi = dict(r1.psi)
    for s in q.aggs:
        if case_i:
            psi[s.alias] = "="
        elif s.func == "count":
            psi[s.alias] = "<="
        elif s.func in ("sum", "max") and s.attr and implies(
            child_conds, Col(s.attr).ge(Lit(0))
        ):
            psi[s.alias] = "<="
        elif s.func in ("sum", "min") and s.attr and implies(
            child_conds, Col(s.attr).le(Lit(0))
        ):
            psi[s.alias] = ">="
        else:
            # relationship unknown (e.g. avg) -> no Psi entry
            psi.pop(s.alias, None)
    return SafetyResult(True, psi, r1.topk_caveat)


def choose_safe_attributes(
    q: Op,
    candidates: Mapping[str, Sequence[str]],
    stats: Optional[Stats] = None,
) -> dict[str, str]:
    """Paper Sec. 9.3 policy: per relation prefer the first candidate
    attribute (the PK) if safe, else try the remaining candidates
    (group-by attrs); drop relations with no safe candidate."""
    chosen: dict[str, str] = {}
    for rel, attrs in candidates.items():
        for a in attrs:
            if is_safe(q, {**{r: [v] for r, v in chosen.items()}, rel: [a]}, stats).safe:
                chosen[rel] = a
                break
    # final joint check — per-attribute safety composes here because the
    # rules treat each relation's X independently, but verify anyway.
    if chosen and not is_safe(q, {r: [a] for r, a in chosen.items()}, stats).safe:
        for rel in list(chosen):
            trial = dict(chosen)
            trial.pop(rel)
            if trial and is_safe(q, {r: [a] for r, a in trial.items()}, stats).safe:
                return {r: a for r, a in trial.items()}
        return {}
    return chosen
