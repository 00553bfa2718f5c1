"""Benchmark of the similarity tables: the blocked, scored Spark join of
every MD plus the threshold and top-k cut of ``SimTable.from_pairs``."""
from repro.baselines.castor import compute_sim_tables


def test_bench_compute_sim_tables(benchmark, spark, bench_movies):
    ds, _ = bench_movies

    def run():
        return compute_sim_tables(ds, k=10)

    tables = benchmark.pedantic(run, rounds=3, iterations=1)
    assert tables["title"].left_to_right
