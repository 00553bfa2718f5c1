"""Minimal CFD repair at the data level (paper §2.3, §6.1.3).

DLearn-Repaired learns over "a version of the database whose CFD
violations are repaired ... using the minimal repair method". For the
key-style CFDs of the experiments, the minimal repair of a violating
LHS group is to unify its RHS values to one of the present values —
which one is unknowable, so we pick deterministically-pseudo-randomly
per group (seeded hash over the candidate values), modelling a repair
tool that cannot know the true value. Duplicate rows produced by the
unification are dropped.

Pure DataFrame plans: no Spark action runs here. ``repair_all`` makes
one pass, one ``minimal_repair`` per CFD, and allows one CFD per
relation. A repaired relation satisfies its CFD, and a repair touches no
other relation, so the pass already is the fixpoint.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.cfd.cfdtypes import CFD
from repro.cfd.violations import in_scope


def minimal_repair(df: DataFrame, cfd: CFD, *, seed: int = 0) -> DataFrame:
    """Unify each violating group's RHS to one seeded-hash-chosen value."""
    scope = in_scope(cfd)
    w = Window.partitionBy(
        *[F.when(scope, F.col(c)) for c in cfd.lhs]
    ).orderBy(F.xxhash64(F.col(cfd.rhs), F.lit(seed)))
    repaired_rhs = F.when(scope, F.first(F.col(cfd.rhs)).over(w)).otherwise(
        F.col(cfd.rhs)
    )
    return df.withColumn(cfd.rhs, repaired_rhs).distinct()


def repair_all(
    df_by_rel: dict[str, DataFrame], cfds: list[CFD], *, seed: int = 0
) -> dict[str, DataFrame]:
    """Repair every relation against its CFD.

    Raises ``ValueError`` when two CFDs name one relation: repairing one
    could then break the other, and one pass would not reach a fixpoint.
    """
    rels = [cfd.rel for cfd in cfds]
    if dup := sorted({r for r in rels if rels.count(r) > 1}):
        raise ValueError(f"one CFD per relation expected, several on {dup}")
    out = dict(df_by_rel)
    for cfd in cfds:
        if cfd.rel in out:
            out[cfd.rel] = minimal_repair(out[cfd.rel], cfd, seed=seed)
    return out
