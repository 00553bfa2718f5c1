"""Synthetic corpus tests: schema sanity, label consistency, dirtiness
knobs, oracle checks of relational invariants."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.cfd.inject import inject_dataset
from repro.cfd.repair import repair_all
from repro.cfd.violations import violating_groups
from repro.datasets import movies, papers, products
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def movie_ds(spark):
    return movies.generate(spark, n_movies=220, n_pos=24, n_neg=48, seed=1)


@pytest.fixture(scope="module")
def product_ds(spark):
    return products.generate(spark, n_products=260, n_pos=24, n_neg=48, seed=1)


@pytest.fixture(scope="module")
def paper_ds(spark):
    return papers.generate(spark, n_papers=200, n_pos=30, n_neg=60, seed=1)


class TestMovies:
    def test_schema_columns_match(self, movie_ds):
        for name, rel in movie_ds.relations.items():
            cols = movie_ds.frames[name].columns
            assert cols == [a.name for a in rel.attrs], name

    def test_positives_are_drama_r(self, movie_ds):
        meta = movie_ds.meta
        for (imdbid,) in movie_ds.pos:
            assert meta["rating"][imdbid] == "R"
            assert meta["is_drama"][imdbid]

    def test_negatives_not_drama_r(self, movie_ds):
        meta = movie_ds.meta
        for (imdbid,) in movie_ds.neg:
            assert not (meta["rating"][imdbid] == "R" and meta["is_drama"][imdbid])

    def test_rating_reachable_only_via_omdb(self, movie_ds):
        imdb_rels = [r for r in movie_ds.relations if r.startswith("imdb")]
        assert not any("rating" in r for r in imdb_rels)

    def test_labels_oracle(self, movie_ds, spark):
        """The positive set equals the drama∧R join computed by DuckDB
        over the ground-truth side tables."""
        got = spark.createDataFrame(
            pd.DataFrame({"imdbid": sorted(i for (i,) in movie_ds.pos)})
        )
        truth = pd.DataFrame(
            [
                {"imdbid": k, "rating": v, "drama": movie_ds.meta["is_drama"][k]}
                for k, v in movie_ds.meta["rating"].items()
            ]
        )
        assert_equivalent(
            got,
            f"""
            SELECT imdbid FROM truth
            WHERE rating = 'R' AND drama
              AND imdbid < 'tt{len(movie_ds.pos):07d}'
            ORDER BY imdbid
            """,
            truth=truth,
        )

    def test_exact_fraction_in_range(self, movie_ds, spark):
        joined = (
            movie_ds.frames["imdb_movies"]
            .select(F.col("title").alias("t"))
            .join(
                movie_ds.frames["omdb_movies"].select(F.col("title").alias("t")),
                on="t",
            )
            .count()
        )
        frac = joined / movie_ds.meta["n_movies"]
        assert 0.25 < frac < 0.60  # exact_frac=0.42 ± sampling noise

    def test_three_md_config(self, movie_ds):
        ds3 = movies.with_three_mds(movie_ds)
        assert {m.name for m in ds3.mds} == {"title", "cast", "writer"}
        assert [m.name for m in movie_ds.mds] == ["title"]  # a copy, not in place
        assert (ds3.name, movie_ds.name) == ("imdb_omdb_3md", "imdb_omdb")

    def test_clean_cfds(self, movie_ds):
        for cfd in movie_ds.cfds:
            assert not violating_groups(movie_ds.frames[cfd.rel], cfd).take(1), cfd.name

    def test_too_small_raises(self, spark):
        with pytest.raises(ValueError):
            movies.generate(spark, n_movies=50, n_pos=30, n_neg=60)


class TestProducts:
    def test_positives_are_comp_accessories(self, product_ds):
        cat = product_ds.meta["category"]
        assert all(cat[u] == "ComputersAccessories" for (u,) in product_ds.pos)
        assert all(cat[u] != "ComputersAccessories" for (u,) in product_ds.neg)

    def test_upc_unique_oracle(self, product_ds):
        got = product_ds.frames["walmart_ids"].select(
            F.countDistinct("upc").alias("n")
        )
        assert_equivalent(
            got,
            "SELECT COUNT(DISTINCT upc) AS n FROM walmart_ids",
            walmart_ids=product_ds.frames["walmart_ids"],
        )

    def test_category_lookup_join(self, product_ds):
        got = (
            product_ds.frames["amazon_cat"]
            .join(product_ds.frames["categories"], on="catid")
            .groupBy("name")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            """
            SELECT c.name AS name, COUNT(*) AS n
            FROM amazon_cat a JOIN categories c USING (catid)
            GROUP BY c.name
            """,
            amazon_cat=product_ds.frames["amazon_cat"],
            categories=product_ds.frames["categories"],
        )

    def test_near_zero_exact_titles(self, product_ds):
        joined = (
            product_ds.frames["walmart_title"]
            .select(F.col("title").alias("t"))
            .join(
                product_ds.frames["amazon_title"].select(F.col("title").alias("t")),
                on="t",
            )
            .count()
        )
        assert joined <= product_ds.meta["n_products"] * 0.10


class TestPapers:
    def test_target_arity_two(self, paper_ds):
        assert len(paper_ds.target.attrs) == 2
        assert all(len(e) == 2 for e in paper_ds.pos)

    def test_negatives_have_wrong_year(self, paper_ds):
        year = paper_ds.meta["year"]
        assert all(year[g] != y for g, y in paper_ds.neg)

    def test_positives_have_true_year(self, paper_ds):
        year = paper_ds.meta["year"]
        assert all(year[g] == y for g, y in paper_ds.pos)

    def test_scholar_lacks_year(self, paper_ds):
        assert "year" not in paper_ds.frames["scholar_papers"].columns

    def test_two_mds(self, paper_ds):
        assert {m.name for m in paper_ds.mds} == {"atitle", "avenue"}


class TestInjection:
    def test_injection_creates_violations(self, movie_ds):
        dirty = inject_dataset(movie_ds, p=0.15, seed=2)
        cfd = next(c for c in movie_ds.cfds if c.name == "omdb_rating_key")
        n = violating_groups(dirty.frames["omdb_mov2rating"], cfd).count()
        assert n > 0

    def test_non_injectable_untouched(self, movie_ds):
        dirty = inject_dataset(movie_ds, p=0.5, seed=2)
        assert dirty.frames["ratings"].count() == movie_ds.frames["ratings"].count()

    def test_inject_and_repair_run_no_spark_job(self, spark, movie_ds):
        """Injection and repair only build plans; the LocalDB collect runs them."""
        sc = spark.sparkContext
        sc.setJobGroup("cfd-plans", "inject_dataset + repair_all")
        try:
            dirty = inject_dataset(movie_ds, p=0.2, seed=2)
            repair_all(dirty.frames, dirty.cfds, seed=7)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert list(sc.statusTracker().getJobIdsForGroup("cfd-plans")) == []

    def test_examples_preserved(self, movie_ds):
        dirty = inject_dataset(movie_ds, p=0.2, seed=2)
        assert dirty.pos == movie_ds.pos and dirty.neg == movie_ds.neg

    def test_rate_scales_with_p(self, movie_ds):
        lo = inject_dataset(movie_ds, p=0.05, seed=2)
        hi = inject_dataset(movie_ds, p=0.20, seed=2)
        rel = "omdb_mov2rating"
        base = movie_ds.frames[rel].count()
        assert (
            hi.frames[rel].count() - base
            > lo.frames[rel].count() - base
            > 0
        )
