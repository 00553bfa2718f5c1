"""CFD-violation injection (paper §6.1.2).

"p of 5% means that 5% of tuples in each relation violate at least one
CFD." We create violations by duplicating a sampled fraction of rows
with a corrupted RHS value drawn from the column's own domain — the
duplicate and the original then form a violating pair of the key-style
CFDs used in the experiments, with the true value still present (so a
repair may keep it or lose it).

The pipeline is deterministic in ``seed`` (hash-based sampling, no
``rand()``), pure DataFrame API, and runs no Spark action: the domain
size is a window count inside the plan.
"""
from __future__ import annotations

from dataclasses import replace

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.cfd.cfdtypes import CFD
from repro.datasets.base import DirtyDataset


def inject_violations(
    df: DataFrame, cfd: CFD, *, p: float, seed: int = 0
) -> DataFrame:
    """Return ``df`` plus corrupted duplicates for ~``p`` of its rows.

    The corrupted copy keeps the LHS (and pattern attributes) intact and
    replaces the RHS with a different value sampled from the global RHS
    domain, producing a violation of ``cfd`` per sampled row.
    """
    if p <= 0:
        return df
    cols = df.columns
    # Deterministic per-row uniform in [0,1) from a hash of the whole row.
    u = (
        F.pmod(F.xxhash64(*[F.col(c) for c in cols], F.lit(seed)), F.lit(1_000_000))
        / 1_000_000.0
    )
    picked = df.where(u < p)
    old = cfd.rhs + "__old"
    # Candidate replacement values: shift the RHS domain by one position.
    n = F.col("__n")
    domain = (
        df.select(F.col(cfd.rhs).alias("__v"))
        .distinct()
        .withColumn("__rank", F.row_number().over(Window.orderBy("__v")))
        .withColumn("__n", F.count("*").over(Window.partitionBy()))
    )
    shift = 1 + F.pmod(F.lit(seed), F.greatest(n - 1, F.lit(1)))
    mapping = domain.withColumn("__to_rank", (F.col("__rank") - 1 + shift) % n + 1)
    repl = mapping.join(
        mapping.select(F.col("__rank").alias("__to_rank"), F.col("__v").alias("__new")),
        on="__to_rank",
    ).select(F.col("__v").alias(old), "__new")
    corrupted = (
        picked.withColumnRenamed(cfd.rhs, old)
        .join(repl, on=old)
        # A one-value domain maps its value to itself: no violation, no copy.
        .where(F.col("__new") != F.col(old))
        .withColumn(cfd.rhs, F.col("__new"))
        .select(*cols)
    )
    return df.unionByName(corrupted)


def inject_dataset(ds: DirtyDataset, *, p: float, seed: int = 0) -> DirtyDataset:
    """Inject CFD violations into every injectable constrained relation
    of a :class:`~repro.datasets.base.DirtyDataset` (paper §6.1.2:
    "p of tuples in each relation violate at least one CFD")."""
    frames = dict(ds.frames)
    for k, cfd in enumerate(ds.cfds):
        if cfd.injectable and cfd.rel in frames:
            frames[cfd.rel] = inject_violations(
                frames[cfd.rel], cfd, p=p, seed=seed + 31 * k
            )
    return replace(ds, frames=frames, meta={**ds.meta, "cfd_violation_rate": p})
