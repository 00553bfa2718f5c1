"""Spark coverage engine ≡ local coverage engine (same semantics)."""
import pickle

import pytest

from repro.baselines.castor import SystemConfig, build_learner, compute_sim_tables
from repro.core.coverage import (
    GroundExample,
    GroundStore,
    LocalCoverageEngine,
    SparkCoverageEngine,
)
from repro.datasets import movies


@pytest.fixture(scope="module")
def setup(spark):
    ds = movies.generate(spark, n_movies=220, n_pos=24, n_neg=48, seed=4)
    sim = compute_sim_tables(ds, k=5)
    learner = build_learner(
        spark, ds, SystemConfig(mode="dlearn", k_m=2, d=4, min_pos=3), sim_tables=sim
    )
    store = learner.ground_store(ds.pos + ds.neg)
    definition = learner.fit(ds.pos[:16], ds.neg[:32], store=store)
    return ds, store, definition


class TestEngineEquivalence:
    def test_masks_identical(self, spark, setup):
        ds, store, definition = setup
        if not definition.clauses:
            pytest.skip("nothing learned at this tiny scale")
        local = LocalCoverageEngine(store)
        dist = SparkCoverageEngine(spark, store, min_rows_for_spark=1)
        keys = ds.pos + ds.neg
        for clause in definition.clauses:
            for positive in (True, False):
                assert local.covered(clause, keys, positive=positive) == dist.covered(
                    clause, keys, positive=positive
                )
        dist.unpersist()

    def test_small_grid_stays_local(self, spark, setup):
        ds, store, definition = setup
        dist = SparkCoverageEngine(spark, store, min_rows_for_spark=10**9)
        clause = definition.clauses[0]
        out = dist.covered(clause, ds.pos[:4], positive=True)
        assert len(out) == 4
        dist.unpersist()

    def test_covered_many_shape(self, spark, setup):
        ds, store, definition = setup
        dist = SparkCoverageEngine(spark, store, min_rows_for_spark=1)
        cls = definition.clauses[:1] * 2
        out = dist.covered_many(cls, ds.pos[:6], positive=True)
        assert len(out) == 2 and all(len(m) == 6 for m in out)
        assert out[0] == out[1]
        dist.unpersist()


class TestBroadcastPickle:
    def test_compiled_forms_stay_out_of_the_broadcast(self, setup):
        """The fit compiled the store's clauses; its pickle is still the
        pickle of the clauses alone, and the unpickled store (which
        recompiles on first use) answers identically."""
        ds, store, definition = setup
        assert any("compiled" in vars(gx) for gx in store.examples.values())
        clauses_only = GroundStore(
            {k: GroundExample(gx.key, gx.ge, gx.repairs) for k, gx in store.examples.items()}
        )
        blob = pickle.dumps(store)
        assert len(blob) == len(pickle.dumps(clauses_only))
        restored = pickle.loads(blob)
        assert not any(
            "compiled" in vars(gx) or "compiled_repairs" in vars(gx)
            for gx in restored.examples.values()
        )
        keys = ds.pos + ds.neg
        clauses = definition.clauses or [next(iter(store.examples.values())).ge]
        for positive in (True, False):
            assert LocalCoverageEngine(restored).covered_many(
                clauses, keys, positive=positive
            ) == LocalCoverageEngine(store).covered_many(clauses, keys, positive=positive)
