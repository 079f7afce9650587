"""Movie-ratings workload (paper Sec. 9.1/9.4): M-Q1, M-Q2, M-Q3.

* M-Q1 — 10 movies with the most ratings (top-10 over group count);
* M-Q2 — number of movies with more than t ratings;
* M-Q3 — 10 most popular movies, popularity = weighted sum of rating
  count and tag count (join of two aggregations).

Sketches go on the group-by attribute movieid — the paper notes its
distinct count is large, which the zipfian generator preserves.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data
from repro.algebra.expr import Col, Lit, Param
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

SCHEMAS = {
    "ratings": ("r_userid", "r_movieid", "r_rating"),
    "movie_tags": ("t_movieid", "t_tag"),
}


def tables_pandas(sf: float = 0.001) -> dict[str, pd.DataFrame]:
    return {
        "ratings": synth_data.ratings_pdf(sf=sf),
        "movie_tags": synth_data.movie_tags_pdf(sf=sf),
    }


def tables_spark(spark: SparkSession, sf: float = 0.001) -> dict:
    return {
        "ratings": synth_data.ratings(spark, sf=sf),
        "movie_tags": synth_data.movie_tags(spark, sf=sf),
    }


def mq1() -> Op:
    """M-Q1: top-10 movies by number of ratings."""
    agg = Aggregate(
        TableAccess("ratings", SCHEMAS["ratings"]),
        ("r_movieid",),
        (AggSpec("count", None, "num_ratings"),),
    )
    return TopK(agg, (("num_ratings", False), ("r_movieid", True)), 10)


def mq2(threshold: float | Param = 63_300) -> Op:
    """M-Q2: number of movies with more than ``threshold`` ratings."""
    thr = threshold if isinstance(threshold, Param) else Lit(threshold)
    agg = Aggregate(
        TableAccess("ratings", SCHEMAS["ratings"]),
        ("r_movieid",),
        (AggSpec("count", None, "num_ratings"),),
    )
    hav = Select(agg, Col("num_ratings").gt(thr))
    return Aggregate(hav, (), (AggSpec("count", None, "num_movies"),))


def mq3() -> Op:
    """M-Q3: top-10 by popularity = num_ratings + 2 * num_tags."""
    ra = Aggregate(
        TableAccess("ratings", SCHEMAS["ratings"]),
        ("r_movieid",),
        (AggSpec("count", None, "num_ratings"),),
    )
    ta = Aggregate(
        TableAccess("movie_tags", SCHEMAS["movie_tags"]),
        ("t_movieid",),
        (AggSpec("count", None, "num_tags"),),
    )
    j = Join(ra, ta, Col("r_movieid").eq(Col("t_movieid")))
    proj = Project(
        j,
        (
            (Col("r_movieid"), "r_movieid"),
            (Col("num_ratings") + Col("num_tags") * Lit(2), "popularity"),
        ),
    )
    return TopK(proj, (("popularity", False), ("r_movieid", True)), 10)


SKETCH_ATTRS = {
    "M-Q1": {"ratings": "r_movieid"},
    "M-Q2": {"ratings": "r_movieid"},
    "M-Q3": {"ratings": "r_movieid", "movie_tags": "t_movieid"},
}
