"""Spark coverage engine ≡ local coverage engine (same semantics)."""
import copy
import pickle

import pytest

from repro.baselines.castor import SystemConfig, build_learner, compute_sim_tables
from repro.core import coverage
from repro.core.clause import Clause, Const, Literal, Var, repair_lit
from repro.core.coverage import (
    GroundExample,
    GroundStore,
    LocalCoverageEngine,
    SparkCoverageEngine,
    cfd_repairs,
)
from repro.datasets import movies


@pytest.fixture(scope="module")
def learner(spark):
    ds = movies.generate(spark, n_movies=220, n_pos=24, n_neg=48, seed=4)
    sim = compute_sim_tables(ds, k=5)
    return ds, build_learner(
        spark, ds, SystemConfig(mode="dlearn", k_m=2, d=4, min_pos=3), sim_tables=sim
    )


@pytest.fixture(scope="module")
def setup(learner):
    ds, lrn = learner
    store = lrn.ground_store(ds.pos + ds.neg)
    definition = lrn.fit(ds.pos[:16], ds.neg[:32], store=store)
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
        assert dist._bc is not None  # dispatched, so the store was broadcast
        dist.unpersist()

    def test_small_grid_stays_local(self, spark, setup):
        ds, store, definition = setup
        dist = SparkCoverageEngine(spark, store, min_rows_for_spark=10**9)
        clause = definition.clauses[0]
        out = dist.covered(clause, ds.pos[:4], positive=True)
        assert len(out) == 4
        dist.unpersist()

    def test_no_broadcast_without_dispatch(self, spark, setup):
        ds, store, definition = setup
        dist = SparkCoverageEngine(spark, store, min_rows_for_spark=10**9)
        dist.covered(definition.clauses[0], ds.pos + ds.neg, positive=False)
        assert dist._bc is None
        dist.unpersist()  # nothing to release

    def test_one_stage_per_job(self, spark, setup):
        """A dispatch scores its grid in one stage: no shuffle."""
        ds, store, definition = setup
        sc = spark.sparkContext
        dist = SparkCoverageEngine(spark, store, min_rows_for_spark=1)
        sc.setJobGroup("test.coverage.stages", "one dispatch")
        try:
            dist.covered_many(definition.clauses[:1], ds.pos + ds.neg, positive=False)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            dist.unpersist()
        tracker = sc.statusTracker()
        jobs = tracker.getJobIdsForGroup("test.coverage.stages")
        assert jobs
        assert all(len(tracker.getJobInfo(j).stageIds) == 1 for j in jobs)

    def test_covered_many_shape(self, spark, setup):
        ds, store, definition = setup
        dist = SparkCoverageEngine(spark, store, min_rows_for_spark=1)
        cls = definition.clauses[:1] * 2
        out = dist.covered_many(cls, ds.pos[:6], positive=True)
        assert len(out) == 2 and all(len(m) == 6 for m in out)
        assert out[0] == out[1]
        dist.unpersist()


class TestRepairCap:
    """Both engines enumerate at most ``max_repairs`` CFD-repaired clauses
    per candidate clause, whether the grid is answered locally or sent
    to Spark."""

    @staticmethod
    def _clause_and_store():
        # One CFD repair group: at cap 1 only the variant that skips it is
        # kept, ``T(x) :- rates(x, r), sym(r, s)``; uncapped, the variant
        # that applies it, ``T(x) :- rates(x, r), sym(r, 'R')``, must
        # cover a positive too.
        x, r, s = Var("x"), Var("r"), Var("s")
        clause = Clause(
            Literal("T", (x,)),
            (
                Literal("rates", (x, r)),
                Literal("sym", (r, s)),
                repair_lit(s, Const("R"), constraint="cfd:k", group="c1", alt="a"),
            ),
        )

        def ground(e, rating, symbol):
            return Clause(
                Literal("T", (Const(e),)),
                (
                    Literal("rates", (Const(e), Const(rating))),
                    Literal("sym", (Const(rating), Const(symbol))),
                ),
            )

        store = GroundStore({
            e: GroundExample.of(e, ground(e, rt, sym))
            for e, rt, sym in [("r", "rt_R", "R"), ("pg", "rt_PG", "PG")]
        })
        return clause, store

    def test_cap_decides_by_enumeration(self):
        """Cut to its one skipping variant, the clause still enumerates it
        (no Thm 4.9 shortcut) and covers both examples; uncapped, the
        applied variant fails on ``pg``."""
        clause, store = self._clause_and_store()
        keys = list(store.examples)
        assert len(cfd_repairs(clause, 1)) == 1 < len(cfd_repairs(clause, 16))
        assert LocalCoverageEngine(store, max_repairs=1).covered(
            clause, keys, positive=True
        ) == [True, True]
        assert LocalCoverageEngine(store).covered(clause, keys, positive=True) == [True, False]

    @pytest.mark.parametrize("min_rows", [1, 10**9], ids=["dispatched", "local"])
    def test_spark_and_local_agree_at_cap_one(self, spark, min_rows):
        clause, store = self._clause_and_store()
        keys = list(store.examples)
        capped = LocalCoverageEngine(store, max_repairs=1)
        dist = SparkCoverageEngine(
            spark, store, min_rows_for_spark=min_rows, max_repairs=1
        )
        try:
            # The cap decides the positive grid, so a path that ignored it
            # would disagree there.
            want = capped.covered(clause, keys, positive=True)
            assert want != LocalCoverageEngine(store).covered(clause, keys, positive=True)
            assert dist.covered(clause, keys, positive=True) == want
            assert dist.covered(clause, keys, positive=False) == capped.covered(
                clause, keys, positive=False
            )
            assert (dist._bc is not None) == (min_rows == 1)
        finally:
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


class _Broadcast:
    """Stands in for a worker-side broadcast: a ``value`` and no id."""

    def __init__(self, store: GroundStore):
        self.value = pickle.dumps(store)


class TestExecutorStore:
    def test_one_unpickle_per_token(self):
        bc = _Broadcast(GroundStore({}))
        first = coverage._executor_store(1, bc)
        assert coverage._executor_store(1, bc) is first

    def test_keeps_only_the_latest_token(self):
        first = coverage._executor_store(2, _Broadcast(GroundStore({})))
        second = coverage._executor_store(3, _Broadcast(GroundStore({})))
        assert second is not first
        assert list(coverage._WORKER_STORE) == [3]


class TestFitReleasesEngine:
    """``DLearn.fit`` releases the engine it made, also when it fails."""

    @staticmethod
    def _recording(lrn, engine_cls):
        made, released = [], []

        class Recording(engine_cls):
            def unpersist(self):
                released.append(self)

        def factory(store):
            made.append(Recording(store, max_repairs=lrn.cfg.max_repairs))
            return made[-1]

        rec = copy.copy(lrn)
        rec.engine_factory = factory
        return rec, made, released

    def test_released_after_fit(self, learner, setup):
        ds, lrn = learner
        _, store, definition = setup
        rec, made, released = self._recording(lrn, LocalCoverageEngine)
        assert rec.fit(ds.pos[:16], ds.neg[:32], store=store).clauses == definition.clauses
        assert len(made) == 1 and released == made

    def test_released_when_fit_fails(self, learner, setup):
        ds, lrn = learner
        _, store, _ = setup

        class Failing(LocalCoverageEngine):
            def covered_many(self, clauses, keys, *, positive):
                raise RuntimeError("coverage failed")

        rec, made, released = self._recording(lrn, Failing)
        with pytest.raises(RuntimeError, match="coverage failed"):
            rec.fit(ds.pos[:16], ds.neg[:32], store=store)
        assert len(made) == 1 and released == made
