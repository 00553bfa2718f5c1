"""End-to-end learner tests over the synthetic corpora (small scale).

These exercise the full pipeline: Spark generation → blocked similarity
join → LocalDB collection → bottom clauses → ARMG → coverage → covering
loop → prediction, and assert the paper's qualitative orderings.
"""
import pytest

from repro.baselines.castor import (
    SystemConfig,
    build_learner,
    compute_sim_tables,
    md_domain_map,
)
from repro.cfd.inject import inject_dataset
from repro.core.bottom_clause import build_bottom_clause
from repro.core.dlearn import timed_fit
from repro.datasets import movies, papers
from repro.eval.harness import evaluate_system
from repro.eval.metrics import score_predictions

from tests._movie_fixture import repr_digest


@pytest.fixture(scope="module")
def movie_ds(spark):
    return movies.generate(spark, n_movies=220, n_pos=24, n_neg=48, seed=3)


@pytest.fixture(scope="module")
def movie_sim(movie_ds):
    return compute_sim_tables(movie_ds, k=10)


@pytest.fixture(scope="module")
def movie_dirty(movie_ds):
    return inject_dataset(movie_ds, p=0.2, seed=0)


@pytest.fixture(scope="module")
def paper_ds(spark):
    return papers.generate(spark, n_papers=200, n_pos=30, n_neg=60, seed=3)


def _f1(spark, ds, cfg, sim):
    learner = build_learner(spark, ds, cfg, sim_tables=sim)
    n_tr_p, n_tr_n = int(len(ds.pos) * 0.7), int(len(ds.neg) * 0.7)
    definition, secs = timed_fit(learner, ds.pos[:n_tr_p], ds.neg[:n_tr_n])
    s = score_predictions(
        learner.predict(definition, ds.pos[n_tr_p:]),
        learner.predict(definition, ds.neg[n_tr_n:]),
    )
    return s, definition, secs


class TestMoviesOrdering:
    def test_dlearn_beats_nomd(self, spark, movie_ds, movie_sim):
        s_dl, d_dl, _ = _f1(
            spark, movie_ds, SystemConfig(mode="dlearn", k_m=5, d=4, min_pos=3), movie_sim
        )
        s_no, _, _ = _f1(
            spark, movie_ds, SystemConfig(mode="nomd", d=4, min_pos=3), movie_sim
        )
        assert s_dl.f1 > s_no.f1
        assert s_dl.f1 > 0.45  # tiny-scale fixture; full scale in jobs/

    def test_learned_clause_uses_similarity_join(self, spark, movie_ds, movie_sim):
        _, definition, _ = _f1(
            spark, movie_ds, SystemConfig(mode="dlearn", k_m=5, d=4, min_pos=3), movie_sim
        )
        assert definition.clauses
        best = definition.clauses[0]
        preds = {l.pred for l in best.body}
        assert "__sim__" in preds
        assert any(p.startswith("omdb") for p in preds)

    def test_timed_fit_returns_positive_time(self, spark, movie_ds, movie_sim):
        _, _, secs = _f1(
            spark, movie_ds, SystemConfig(mode="nomd", d=2, min_pos=3), movie_sim
        )
        assert secs > 0


class TestPapersNoMDZero:
    def test_nomd_learns_nothing(self, spark, paper_ds):
        """Paper Table 4: Castor-NoMD F1 = 0 on DBLP+Scholar — the year
        is only connected through the similarity join."""
        s, definition, _ = _f1(
            spark, paper_ds, SystemConfig(mode="nomd", d=3, min_pos=3), {}
        )
        assert s.f1 == 0.0

    def test_dlearn_learns_year_join(self, spark, paper_ds):
        sim = compute_sim_tables(paper_ds, k=10)
        s, definition, _ = _f1(
            spark, paper_ds, SystemConfig(mode="dlearn", k_m=10, d=3, min_pos=3), sim
        )
        assert s.f1 > 0.4
        preds = {l.pred for c in definition.clauses for l in c.body}
        assert "dblp_papers" in preds and "scholar_papers" in preds


class TestDomainMap:
    def test_one_md_merges_only_titles(self, movie_ds):
        m = md_domain_map(movie_ds)
        assert m == {"omdb_title": "imdb_title"}

    def test_three_mds_merge_names(self, movie_ds):
        m = md_domain_map(movies.with_three_mds(movie_ds))
        assert set(m) == {"omdb_title", "omdb_actor", "omdb_writer"}


class TestHarness:
    def test_evaluate_system_runs(self, spark, movie_ds, movie_sim):
        r = evaluate_system(
            spark,
            movie_ds,
            SystemConfig(mode="dlearn", k_m=2, d=4, min_pos=3),
            system_name="DLearn",
            n_folds=3,
            max_folds=1,
            sim_tables=movie_sim,
        )
        assert len(r.folds) == 1
        assert 0.0 <= r.f1 <= 1.0
        assert r.time_minutes > 0
        row = r.row()
        assert set(row) == {"dataset", "system", "f1", "time_min"}


class TestCfdSwitch:
    def test_use_cfd_repairs_is_the_only_switch(self, spark, movie_dirty):
        """CFD repair literals appear in bottom and ground clauses exactly
        when the system turns them on (``build_learner`` passes no CFDs
        otherwise)."""
        examples = movie_dirty.pos[:3] + movie_dirty.neg[:3]

        def cfd_literals(use_cfd_repairs: bool) -> int:
            cfg = SystemConfig(mode="dlearn", k_m=2, d=4, use_cfd_repairs=use_cfd_repairs)
            # No similarity tables: the violated CFDs are reached by exact joins.
            learner = build_learner(spark, movie_dirty, cfg, sim_tables={})
            clauses = [gx.ge for gx in learner.ground_store(examples).examples.values()]
            clauses += [
                build_bottom_clause(
                    learner.db, learner.target, ex, mds=learner.mds,
                    sim_tables=learner.sim_tables, cfds=learner.cfds, cfg=learner.cfg.bc,
                )
                for ex in examples
            ]
            return sum(
                l.constraint.startswith("cfd:")
                for c in clauses
                for l in c.body
                if l.is_repair
            )

        assert cfd_literals(False) == 0
        assert cfd_literals(True) > 0


def _all_bottom_clauses(learner, ds) -> list:
    return [
        build_bottom_clause(
            learner.db, learner.target, ex, mds=learner.mds,
            sim_tables=learner.sim_tables, cfds=learner.cfds, cfg=learner.cfg.bc,
            ground=ground,
        )
        for ex in ds.pos + ds.neg
        for ground in (False, True)
    ]


class TestPinnedBottomClauses:
    """Every example's seed and ground bottom clause over the dirty movie
    corpus, as a sha256 of their ``repr``s. DLearn-CFD's digest pins the
    injection and was recorded from the original Algorithm 2
    implementation; DLearn-Repaired's pins the data-level repair and was
    recorded before the repair became one pass. ``build_learner``
    computes the similarity tables at k=10 and the learner uses them at
    k_m=2."""

    DIGEST = "03629a839fc7d0c5f41c8d3e11542e8df9add63371c5884466e3c4770a8e8084"
    REPAIRED_DIGEST = "8dd84bb2acf2483bf2b41422f465c6db515ee41212405f8aadce6dc4af623689"

    def test_dlearn_cfd_clauses(self, spark, movie_dirty):
        cfg = SystemConfig(mode="dlearn", k_m=2, d=4, use_cfd_repairs=True)
        clauses = _all_bottom_clauses(build_learner(spark, movie_dirty, cfg), movie_dirty)
        assert any(
            l.is_repair and l.constraint.startswith("cfd:") for c in clauses for l in c.body
        )
        assert repr_digest(clauses) == self.DIGEST

    def test_dlearn_repaired_clauses(self, spark, movie_dirty):
        cfg = SystemConfig(mode="dlearn", k_m=2, d=4, repair_data=True)
        clauses = _all_bottom_clauses(build_learner(spark, movie_dirty, cfg), movie_dirty)
        assert repr_digest(clauses) == self.REPAIRED_DIGEST
