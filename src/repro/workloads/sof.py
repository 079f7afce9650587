"""Stack Overflow workload (paper Sec. 9.1/9.4): S-Q1/2/4/5.

* S-Q1 — 10 users with the most posts;
* S-Q2 — 10 users with the most comments;
* S-Q4 — 10 users with the most badges;
* S-Q5 — all users whose comment count lies in [lo, hi]
  (parameterized interval — the paper's end-to-end workload draws
  ``lo`` and the interval size from normal distributions).

Safe sketches: the activity table's user foreign key (the group-by
attribute) and users.u_id (equated via the join).
"""
from __future__ import annotations

import pandas as pd

from repro import synth_data
from repro.algebra.expr import And, Col, Lit, Param
from repro.algebra.ops import (
    Aggregate,
    AggSpec,
    Join,
    Op,
    Project,
    Select,
    TableAccess,
    TopK,
)
from repro.workloads.templates import ParamSpec, Template

SCHEMAS = {
    "users": ("u_id", "u_reputation"),
    "posts": ("p_id", "p_user", "p_score"),
    "comments": ("c_id", "c_user", "c_score"),
    "badges": ("b_id", "b_user", "b_score"),
}


def tables_pandas(sf: float = 0.0001) -> dict[str, pd.DataFrame]:
    return {
        "users": synth_data.sof_users_pdf(sf=sf),
        "posts": synth_data.sof_posts_pdf(sf=sf),
        "comments": synth_data.sof_comments_pdf(sf=sf),
        "badges": synth_data.sof_badges_pdf(sf=sf),
    }


def _top_users_by(activity: str, user_fk: str, alias: str) -> Op:
    agg = Aggregate(
        TableAccess(activity, SCHEMAS[activity]),
        (user_fk,),
        (AggSpec("count", None, alias),),
    )
    j = Join(
        TableAccess("users", SCHEMAS["users"]), agg, Col("u_id").eq(Col(user_fk))
    )
    top = TopK(j, ((alias, False), ("u_id", True)), 10)
    return Project(
        top,
        (
            (Col("u_id"), "u_id"),
            (Col("u_reputation"), "u_reputation"),
            (Col(alias), alias),
        ),
    )


def sq1() -> Op:
    """S-Q1: top-10 users by number of posts."""
    return _top_users_by("posts", "p_user", "num_posts")


def sq2() -> Op:
    """S-Q2: top-10 users by number of comments."""
    return _top_users_by("comments", "c_user", "num_comments")


def sq4() -> Op:
    """S-Q4: top-10 users by number of badges."""
    return _top_users_by("badges", "b_user", "num_badges")


def sq5(lo: float | Param = 40, hi: float | Param = 60) -> Op:
    """S-Q5: users with a comment count in [lo, hi]."""
    lo_e = lo if isinstance(lo, Param) else Lit(lo)
    hi_e = hi if isinstance(hi, Param) else Lit(hi)
    agg = Aggregate(
        TableAccess("comments", SCHEMAS["comments"]),
        ("c_user",),
        (AggSpec("count", None, "num_comments"),),
    )
    hav = Select(
        agg, And(Col("num_comments").ge(lo_e), Col("num_comments").le(hi_e))
    )
    j = Join(
        TableAccess("users", SCHEMAS["users"]), hav, Col("u_id").eq(Col("c_user"))
    )
    return Project(
        j,
        (
            (Col("u_id"), "u_id"),
            (Col("u_reputation"), "u_reputation"),
            (Col("num_comments"), "num_comments"),
        ),
    )


SKETCH_ATTRS = {
    "S-Q1": {"posts": "p_user", "users": "u_id"},
    "S-Q2": {"comments": "c_user", "users": "u_id"},
    "S-Q4": {"badges": "b_user", "users": "u_id"},
    "S-Q5": {"comments": "c_user", "users": "u_id"},
}


def sq5_template(*, mean: float, sdv: float, width_mean: float, width_sdv: float) -> Template:
    """S-Q5 with lo ~ N(mean, sdv) and hi = lo + width (the paper's
    interval-parameter scheme: draw the start, then the size)."""
    ir = sq5(Param("lo"), Param("hi"))
    return Template(
        name="S-Q5",
        ir=ir,
        params=(
            ParamSpec("lo", mean=mean, sdv=sdv, lo=1),
            ParamSpec("width", mean=width_mean, sdv=width_sdv, lo=0),
        ),
        sketch_attrs=SKETCH_ATTRS["S-Q5"],
    )


def sq5_bindings(raw: dict) -> dict:
    """Turn sampled (lo, width) into the query's (lo, hi) binding."""
    return {"lo": raw["lo"], "hi": raw["lo"] + raw["width"]}
