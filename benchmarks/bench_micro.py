"""Micro-benchmarks of the learner's inner loops: similarity scoring
(one pair, and a batch with the batched and the scalar kernel),
bottom-clause construction, θ-subsumption, Plotkin reduction, ARMG and
whole-store coverage, local and sent to Spark."""
import random

import pytest

from repro.baselines.castor import SystemConfig, build_learner
from repro.core.bottom_clause import build_bottom_clause
from repro.core.clause import head_connected, remove_redundant_literals
from repro.core.coverage import LocalCoverageEngine, SparkCoverageEngine
from repro.core.generalize import armg
from repro.core.subsumption import reduce_clause, subsumes
from repro.simjoin.similarity import combined_similarity, combined_similarity_batch


def test_bench_similarity(benchmark):
    a, b = "Amber River Tiger (1984)", "amber river tigre"
    benchmark(combined_similarity, a, b)


def _title_pairs(n: int = 500) -> list[tuple[str, str]]:
    """``n`` fixed pairs of movie-like titles of one to five words."""
    rng = random.Random(0)
    words = "amber river tiger golden letter harbor silent canyon the of night".split()

    def title() -> str:
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))

    return [(f"{title().title()} ({rng.randint(1950, 2020)})", title()) for _ in range(n)]


@pytest.mark.parametrize("kernel", ["batch", "scalar"])
def test_bench_similarity_batch(benchmark, kernel):
    """One fixed pair list, scored by the batched kernel as
    ``blocked_join`` does per partition, and by the scalar loop."""
    pairs = _title_pairs()
    if kernel == "batch":
        benchmark(combined_similarity_batch, pairs)
    else:
        benchmark(lambda: [combined_similarity(a, b) for a, b in pairs])


@pytest.fixture(scope="module")
def learner_and_store(spark, bench_movies):
    ds, sim = bench_movies
    learner = build_learner(
        spark, ds, SystemConfig(mode="dlearn", k_m=5, d=4, min_pos=3), sim_tables=sim
    )
    store = learner.ground_store(ds.pos + ds.neg)
    return ds, learner, store


def test_bench_ground_bottom_clause(benchmark, learner_and_store):
    ds, learner, _ = learner_and_store
    def run():
        learner._ground_cache = {}
        return learner.ground_store([ds.pos[0]])
    benchmark(run)


@pytest.fixture(scope="module")
def bottom(learner_and_store):
    """The first positive's bottom clause without redundant literals,
    before and after Plotkin reduction."""
    ds, learner, _ = learner_and_store
    cb = build_bottom_clause(
        learner.db, learner.target, ds.pos[0], mds=learner.mds,
        sim_tables=learner.sim_tables, cfds=[], cfg=learner.cfg.bc,
    )
    start = remove_redundant_literals(head_connected(cb))
    return start, reduce_clause(start)


def test_bench_subsumption(benchmark, learner_and_store, bottom):
    ds, _, store = learner_and_store
    benchmark(subsumes, bottom[1], store.examples[ds.pos[0]].compiled)


def test_bench_reduce_clause(benchmark, bottom):
    """Plotkin reduction of the redundancy-reduced bottom clause, as
    ``DLearn._learn_clause`` starts every clause."""
    benchmark(reduce_clause, bottom[0])


def test_bench_armg(benchmark, learner_and_store, bottom):
    ds, _, store = learner_and_store
    benchmark(armg, bottom[1], store.examples[ds.pos[1]].compiled)


def test_bench_local_coverage(benchmark, learner_and_store, bottom):
    """One clause against every example of the store, memo cold."""
    ds, learner, store = learner_and_store
    keys = list(store.examples)

    def run():
        engine = LocalCoverageEngine(store, max_repairs=learner.cfg.max_repairs)
        return engine.covered(bottom[1], keys, positive=False)

    benchmark(run)


def test_bench_spark_coverage(benchmark, spark, learner_and_store, bottom):
    """The same grid as ``test_bench_local_coverage``, sent to Spark as
    one dispatch: a fresh engine per run, so each run also broadcasts
    the store and every worker unpickles it."""
    ds, learner, store = learner_and_store
    keys = list(store.examples)

    def run():
        engine = SparkCoverageEngine(spark, store, min_rows_for_spark=1)
        try:
            return engine.covered_many([bottom[1]], keys, positive=False)
        finally:
            engine.unpersist()

    benchmark(run)
