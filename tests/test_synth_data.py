"""Determinism and shape of the synthetic dataset generators."""
import numpy as np
import pandas as pd

from repro import synth_data as sd


class TestDeterminism:
    def test_crimes_deterministic(self):
        a = sd.crimes_pdf(sf=0.0002)
        b = sd.crimes_pdf(sf=0.0002)
        pd.testing.assert_frame_equal(a, b)

    def test_ratings_deterministic(self):
        pd.testing.assert_frame_equal(sd.ratings_pdf(sf=0.0002), sd.ratings_pdf(sf=0.0002))

    def test_seed_changes_data(self):
        a = sd.crimes_pdf(sf=0.0002, seed=1)
        b = sd.crimes_pdf(sf=0.0002, seed=2)
        assert not a.equals(b)


class TestShapes:
    def test_crimes_schema(self):
        df = sd.crimes_pdf(sf=0.0002)
        assert list(df.columns) == ["cr_id", "cr_area", "cr_block", "cr_type", "cr_year"]
        assert df["cr_area"].between(1, 77).all()

    def test_crimes_zipf_skew(self):
        df = sd.crimes_pdf(sf=0.001)
        counts = df["cr_area"].value_counts()
        # zipf: the heaviest area dwarfs the median one
        assert counts.iloc[0] > 5 * counts.median()

    def test_ratings_skew(self):
        df = sd.ratings_pdf(sf=0.002)
        counts = df["r_movieid"].value_counts()
        assert counts.iloc[0] > 5 * counts.median()

    def test_movies_ratio(self):
        m = sd.movies_pdf(sf=0.01)
        r = sd.ratings_pdf(sf=0.01)
        assert len(r) > 50 * len(m)  # ~20M ratings vs 27k movies

    def test_sof_tables(self):
        u = sd.sof_users_pdf(sf=0.00005)
        p = sd.sof_posts_pdf(sf=0.00005)
        c = sd.sof_comments_pdf(sf=0.00005)
        b = sd.sof_badges_pdf(sf=0.00005)
        assert {"u_id", "u_reputation"} <= set(u.columns)
        assert p["p_user"].max() <= len(u)
        assert c["c_user"].max() <= len(u)
        assert b["b_user"].max() <= len(u)
        # cardinality ordering mirrors the real dataset
        assert len(c) > len(p) > len(b) > 0

    def test_tpch_lite_fk_domains(self):
        from repro.workloads.tpch import tables_pandas

        t = tables_pandas(sf=0.001)
        assert t["lineitem"]["l_orderkey"].max() <= len(t["orders"])
        assert t["orders"]["o_custkey"].max() <= len(t["customer"])
        assert t["lineitem"]["l_partkey"].max() <= len(t["part"])
