"""CFD-violation injection (paper §6.1.2).

"p of 5% means that 5% of tuples in each relation violate at least one
CFD." We create violations by duplicating a sampled fraction of rows
with a corrupted RHS value drawn from the column's own domain — the
duplicate and the original then form a violating pair of the key-style
CFDs used in the experiments, with the true value still present (so a
repair may keep it or lose it).

The pipeline is deterministic in ``seed`` (hash-based sampling, no
``rand()``), pure DataFrame API.
"""
from __future__ import annotations


from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.cfd.cfdtypes import CFD


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
    # Candidate replacement values: shift the RHS domain by one position.
    domain = (
        df.select(F.col(cfd.rhs).alias("__v"))
        .distinct()
        .withColumn(
            "__rank",
            F.row_number().over(Window.orderBy("__v")),
        )
    )
    n = domain.count()
    if n < 2:
        return df  # cannot corrupt a constant column
    shift = 1 + (seed % max(1, n - 1))
    mapping = domain.withColumn(
        "__to_rank", (F.col("__rank") - 1 + shift) % n + 1
    )
    repl = mapping.alias("a").join(
        mapping.select(
            F.col("__rank").alias("__to_rank"), F.col("__v").alias("__new")
        ).alias("b"),
        on="__to_rank",
    ).select(F.col("a.__v").alias(cfd.rhs + "__old"), "__new")
    corrupted = (
        picked.withColumnRenamed(cfd.rhs, cfd.rhs + "__old")
        .join(repl, on=cfd.rhs + "__old", how="left")
        .withColumn(cfd.rhs, F.coalesce(F.col("__new"), F.col(cfd.rhs + "__old")))
        .select(*cols)
    )
    return df.unionByName(corrupted)


def inject_dataset(ds, *, p: float, seed: int = 0):
    """Inject CFD violations into every injectable constrained relation
    of a :class:`~repro.datasets.base.DirtyDataset` (paper §6.1.2:
    "p of tuples in each relation violate at least one CFD")."""
    from repro.datasets.base import DirtyDataset  # local: avoid cycle

    frames = dict(ds.frames)
    for k, cfd in enumerate(ds.cfds):
        if cfd.injectable and cfd.rel in frames:
            frames[cfd.rel] = inject_violations(
                frames[cfd.rel], cfd, p=p, seed=seed + 31 * k
            )
    return DirtyDataset(
        name=ds.name,
        relations=ds.relations,
        frames=frames,
        mds=list(ds.mds),
        cfds=list(ds.cfds),
        target=ds.target,
        pos=list(ds.pos),
        neg=list(ds.neg),
        meta={**ds.meta, "cfd_violation_rate": p},
    )
