"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# ---------------------------------------------------------------------------
# Synthetic stand-ins for the PBDS paper's real-world datasets (Sec. 9.1).
# Each keeps the original schema shape, cardinality ratios and — crucially
# for PBDS — zipfian group-size skew, so that top-k / HAVING provenance is
# a small, range-clusterable subset. ``*_pdf`` variants return pandas
# frames (for the interpreter/oracle); the Spark variants wrap them.
# ---------------------------------------------------------------------------

_N_CRIMES_PER_SF = 6_700_000  # paper: ~6.7M Chicago crime records


def _zipf_ids(g: np.random.Generator, n: int, n_keys: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, n_keys + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    return g.choice(ranks, size=n, p=w)


def crimes_pdf(*, sf: float = 0.001, seed: int = 10) -> pd.DataFrame:
    """Chicago-crimes-shaped table: 77 community areas, many blocks,
    both zipf-skewed (real crime counts are heavily concentrated)."""
    n = max(10, int(_N_CRIMES_PER_SF * sf))
    n_blocks = max(20, n // 150)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "cr_id": np.arange(1, n + 1),
            # mild skew: the real dataset's top-5 community areas hold
            # ~15 % of crimes, not a majority
            "cr_area": _zipf_ids(g, n, 77, 0.5),
            "cr_block": _zipf_ids(g, n, n_blocks, 1.1),
            "cr_type": g.integers(1, 36, n),
            "cr_year": g.integers(2001, 2021, n),
        }
    )


def crimes(spark: SparkSession, *, sf: float = 0.001, seed: int = 10) -> DataFrame:
    return spark.createDataFrame(crimes_pdf(sf=sf, seed=seed))


_N_MOVIES_PER_SF = 27_000
_N_RATINGS_PER_SF = 20_000_000
_N_TAGS_PER_SF = 465_000


def movies_pdf(*, sf: float = 0.001, seed: int = 11) -> pd.DataFrame:
    n = max(5, int(_N_MOVIES_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "m_movieid": np.arange(1, n + 1),
            "m_year": g.integers(1950, 2021, n),
        }
    )


def ratings_pdf(*, sf: float = 0.001, seed: int = 12) -> pd.DataFrame:
    """MovieLens-ratings-shaped: ratings per movie are zipfian."""
    n = max(20, int(_N_RATINGS_PER_SF * sf))
    n_movies = max(5, int(_N_MOVIES_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "r_userid": g.integers(1, max(2, n // 100) + 1, n),
            "r_movieid": _zipf_ids(g, n, n_movies, 1.05),
            "r_rating": g.integers(1, 11, n) / 2.0,
        }
    )


def movie_tags_pdf(*, sf: float = 0.001, seed: int = 13) -> pd.DataFrame:
    n = max(10, int(_N_TAGS_PER_SF * sf))
    n_movies = max(5, int(_N_MOVIES_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "t_movieid": _zipf_ids(g, n, n_movies, 1.05),
            "t_tag": g.integers(1, 1000, n),
        }
    )


def movies(spark, *, sf: float = 0.001, seed: int = 11) -> DataFrame:
    return spark.createDataFrame(movies_pdf(sf=sf, seed=seed))


def ratings(spark, *, sf: float = 0.001, seed: int = 12) -> DataFrame:
    return spark.createDataFrame(ratings_pdf(sf=sf, seed=seed))


def movie_tags(spark, *, sf: float = 0.001, seed: int = 13) -> DataFrame:
    return spark.createDataFrame(movie_tags_pdf(sf=sf, seed=seed))


_N_SOF_USERS_PER_SF = 12_500_000
_N_SOF_POSTS_PER_SF = 48_500_000
_N_SOF_COMMENTS_PER_SF = 75_900_000
_N_SOF_BADGES_PER_SF = 35_900_000


def sof_users_pdf(*, sf: float = 0.0001, seed: int = 14) -> pd.DataFrame:
    n = max(10, int(_N_SOF_USERS_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "u_id": np.arange(1, n + 1),
            "u_reputation": g.integers(1, 100_000, n),
        }
    )


def _sof_activity(name_prefix: str, n_total: int, *, sf: float, seed: int) -> pd.DataFrame:
    n = max(20, int(n_total * sf))
    n_users = max(10, int(_N_SOF_USERS_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            f"{name_prefix}_id": np.arange(1, n + 1),
            f"{name_prefix}_user": _zipf_ids(g, n, n_users, 1.05),
            f"{name_prefix}_score": g.integers(0, 100, n),
        }
    )


def sof_posts_pdf(*, sf: float = 0.0001, seed: int = 15) -> pd.DataFrame:
    return _sof_activity("p", _N_SOF_POSTS_PER_SF, sf=sf, seed=seed)


def sof_comments_pdf(*, sf: float = 0.0001, seed: int = 16) -> pd.DataFrame:
    return _sof_activity("c", _N_SOF_COMMENTS_PER_SF, sf=sf, seed=seed)


def sof_badges_pdf(*, sf: float = 0.0001, seed: int = 17) -> pd.DataFrame:
    return _sof_activity("b", _N_SOF_BADGES_PER_SF, sf=sf, seed=seed)


def sof_users(spark, *, sf: float = 0.0001, seed: int = 14) -> DataFrame:
    return spark.createDataFrame(sof_users_pdf(sf=sf, seed=seed))


def sof_posts(spark, *, sf: float = 0.0001, seed: int = 15) -> DataFrame:
    return spark.createDataFrame(sof_posts_pdf(sf=sf, seed=seed))


def sof_comments(spark, *, sf: float = 0.0001, seed: int = 16) -> DataFrame:
    return spark.createDataFrame(sof_comments_pdf(sf=sf, seed=seed))


def sof_badges(spark, *, sf: float = 0.0001, seed: int = 17) -> DataFrame:
    return spark.createDataFrame(sof_badges_pdf(sf=sf, seed=seed))
