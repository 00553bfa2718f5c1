"""Table reproductions (paper §6, Tables 4–7).

Each function runs the experiment behind one table at reproduction
scale and returns markdown-ready rows; the paper's published numbers
live alongside ours in ``EXPERIMENTS.md``. ``scale`` shrinks dataset
and fold counts for smoke tests.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.baselines.castor import SystemConfig, compute_sim_tables
from repro.cfd.inject import inject_dataset
from repro.datasets import movies, papers, products
from repro.eval.harness import evaluate_system, format_table


@dataclass
class Scale:
    """Experiment scale knobs (defaults = repro scale)."""

    n_movies: int = 500
    n_pos_movies: int = 60
    n_neg_movies: int = 120
    n_products: int = 450
    n_pos_products: int = 60
    n_neg_products: int = 120
    n_papers: int = 650
    n_pos_papers: int = 100
    n_neg_papers: int = 200
    n_folds: int = 5
    max_folds: int = 2
    seed: int = 0


SMOKE = Scale(
    n_movies=220,
    n_pos_movies=24,
    n_neg_movies=48,
    n_products=260,
    n_pos_products=24,
    n_neg_products=48,
    n_papers=200,
    n_pos_papers=30,
    n_neg_papers=60,
    n_folds=3,
    max_folds=1,
)

#: iteration depth per dataset (paper §6.2.3)
D_BY_DATASET = {"imdb_omdb": 4, "walmart_amazon": 5, "dblp_scholar": 3}


def _movies(spark, s: Scale, three_mds: bool = False):
    ds = movies.generate(
        spark,
        n_movies=s.n_movies,
        n_pos=s.n_pos_movies,
        n_neg=s.n_neg_movies,
        seed=s.seed,
    )
    if three_mds:
        ds = movies.with_three_mds(ds)
    return ds


def _products(spark, s: Scale):
    return products.generate(
        spark,
        n_products=s.n_products,
        n_pos=s.n_pos_products,
        n_neg=s.n_neg_products,
        seed=s.seed,
    )


def _papers(spark, s: Scale):
    return papers.generate(
        spark,
        n_papers=s.n_papers,
        n_pos=s.n_pos_papers,
        n_neg=s.n_neg_papers,
        seed=s.seed,
    )


def _eval(spark, ds, cfg, name, s: Scale, sim_tables=None, **kw):
    r = evaluate_system(
        spark,
        ds,
        cfg,
        system_name=name,
        n_folds=s.n_folds,
        max_folds=s.max_folds,
        seed=s.seed,
        sim_tables=sim_tables,
        **kw,
    )
    return r.row()


def table4(spark: SparkSession, *, scale: Scale | None = None) -> list[dict]:
    """Table 4: F1 + time of Castor-NoMD/Exact/Clean and DLearn at
    k_m ∈ {2, 5, 10} over the four dataset configurations."""
    s = scale or Scale()
    rows: list[dict] = []
    datasets = [
        ("IMDB+OMDB (one MD)", _movies(spark, s, False)),
        ("IMDB+OMDB (three MDs)", _movies(spark, s, True)),
        ("Walmart+Amazon", _products(spark, s)),
        ("DBLP+GoogleScholar", _papers(spark, s)),
    ]
    for label, ds in datasets:
        d = D_BY_DATASET[ds.name.removesuffix("_3md")]
        sim = compute_sim_tables(ds, k=10)
        systems = [
            ("Castor-NoMD", SystemConfig(mode="nomd", d=d, min_pos=3)),
            ("Castor-Exact", SystemConfig(mode="exact", d=d, min_pos=3)),
            ("Castor-Clean", SystemConfig(mode="clean", k_m=10, d=d, min_pos=3)),
            ("DLearn (km=2)", SystemConfig(mode="dlearn", k_m=2, d=d, min_pos=3)),
            ("DLearn (km=5)", SystemConfig(mode="dlearn", k_m=5, d=d, min_pos=3)),
            ("DLearn (km=10)", SystemConfig(mode="dlearn", k_m=10, d=d, min_pos=3)),
        ]
        for name, cfg in systems:
            row = _eval(spark, ds, cfg, name, s, sim_tables=sim)
            row["dataset"] = label
            rows.append(row)
            print(f"[table4] {label:24s} {name:16s} f1={row['f1']} t={row['time_min']}m", flush=True)
    return rows


def table5(spark: SparkSession, *, scale: Scale | None = None) -> list[dict]:
    """Table 5: DLearn-CFD vs DLearn-Repaired at violation rates p."""
    s = scale or Scale()
    rows: list[dict] = []
    base = [
        ("IMDB+OMDB (three MDs)", _movies(spark, s, True), 5),
        ("Walmart+Amazon", _products(spark, s), 10),
        ("DBLP+GoogleScholar", _papers(spark, s), 10),
    ]
    for label, ds, k_m in base:
        d = D_BY_DATASET[ds.name.removesuffix("_3md")]
        for p in (0.05, 0.10, 0.20):
            dirty = inject_dataset(ds, p=p, seed=s.seed)
            sim = compute_sim_tables(dirty, k=10)
            for name, cfg in [
                (
                    "DLearn-CFD",
                    SystemConfig(
                        mode="dlearn", k_m=k_m, d=d, min_pos=3, use_cfd_repairs=True
                    ),
                ),
                (
                    "DLearn-Repaired",
                    SystemConfig(
                        mode="dlearn", k_m=k_m, d=d, min_pos=3, repair_data=True
                    ),
                ),
            ]:
                row = _eval(spark, dirty, cfg, name, s, sim_tables=sim)
                row["dataset"] = label
                row["p"] = p
                rows.append(row)
                print(
                    f"[table5] {label:24s} {name:16s} p={p} f1={row['f1']} t={row['time_min']}m",
                    flush=True,
                )
    return rows


def table6(
    spark: SparkSession,
    *,
    scale: Scale | None = None,
    sizes: tuple[int, ...] = (50, 100, 200, 400),
    p: float = 0.10,
) -> list[dict]:
    """Table 6: scaling the number of examples on IMDB+OMDB (3 MDs)
    with CFD violations, k_m ∈ {5, 2}. ``sizes`` are positive-example
    counts (negatives are doubled), scaled from the paper's 100..2000."""
    s = scale or Scale()
    rows: list[dict] = []
    for k_m in (5, 2):
        for n_pos in sizes:
            ds = movies.generate(
                spark,
                n_movies=max(int(n_pos * 3 * 1.6), 300),
                n_pos=n_pos,
                n_neg=2 * n_pos,
                seed=s.seed,
            )
            ds = movies.with_three_mds(ds)
            dirty = inject_dataset(ds, p=p, seed=s.seed)
            sim = compute_sim_tables(dirty, k=max(5, k_m))
            cfg = SystemConfig(
                mode="dlearn", k_m=k_m, d=4, min_pos=3, use_cfd_repairs=True
            )
            r = evaluate_system(
                spark,
                dirty,
                cfg,
                system_name=f"DLearn-CFD km={k_m}",
                n_folds=s.n_folds,
                max_folds=1,
                seed=s.seed,
                sim_tables=sim,
                use_spark_coverage=n_pos >= 200,
            )
            row = r.row()
            row["k_m"] = k_m
            row["n_pos"] = n_pos
            row["n_neg"] = 2 * n_pos
            rows.append(row)
            print(
                f"[table6] km={k_m} #P/#N={n_pos}/{2*n_pos} f1={row['f1']} t={row['time_min']}m",
                flush=True,
            )
    return rows


def table7(
    spark: SparkSession,
    *,
    scale: Scale | None = None,
    depths: tuple[int, ...] = (2, 3, 4, 5),
    p: float = 0.10,
) -> list[dict]:
    """Table 7: iteration depth d sweep on IMDB+OMDB (3 MDs + CFDs),
    k_m = 5. The rating chain is 4 hops from the example id, so F1
    jumps at d = 4 as in the paper."""
    s = scale or Scale()
    ds = movies.with_three_mds(_movies(spark, s, False))
    dirty = inject_dataset(ds, p=p, seed=s.seed)
    sim = compute_sim_tables(dirty, k=5)
    rows: list[dict] = []
    for d in depths:
        cfg = SystemConfig(
            mode="dlearn", k_m=5, d=d, min_pos=3, use_cfd_repairs=True
        )
        row = _eval(spark, dirty, cfg, f"DLearn-CFD d={d}", s, sim_tables=sim)
        row["d"] = d
        rows.append(row)
        print(f"[table7] d={d} f1={row['f1']} t={row['time_min']}m", flush=True)
    return rows


def dataset_stats(spark: SparkSession, *, scale: Scale | None = None) -> list[dict]:
    """Table 3 analogue: #relations / #tuples / #examples per corpus."""
    s = scale or Scale()
    rows = []
    for label, ds in [
        ("IMDB+OMDB", _movies(spark, s)),
        ("Walmart+Amazon", _products(spark, s)),
        ("DBLP+GoogleScholar", _papers(spark, s)),
    ]:
        rows.append(
            {
                "dataset": label,
                "relations": len(ds.relations),
                "tuples": ds.n_tuples(),
                "pos": len(ds.pos),
                "neg": len(ds.neg),
                "mds": len(ds.mds),
                "cfds": len(ds.cfds),
            }
        )
    return rows
