"""CFD violation detection as a DataFrame pipeline (paper §2.3).

A pair of tuples violates ``(X → A, tp)`` when they agree on X, both
match the pattern, and disagree on A. Set-oriented formulation: among
pattern-matching rows, group by X and flag groups with > 1 distinct
RHS value (pattern-compatible). All Catalyst; oracle-checked in tests.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.cfd.cfdtypes import WILD, CFD


def _pattern_filter(df: DataFrame, cfd: CFD) -> DataFrame:
    out = df
    for attr, val in cfd.pattern:
        if val != WILD:
            out = out.where(F.col(attr) == F.lit(val))
    return out


def violating_groups(df: DataFrame, cfd: CFD) -> DataFrame:
    """LHS groups with more than one distinct RHS value (pattern scope).

    Returns one row per violating group: the LHS columns plus
    ``n_rhs`` (distinct RHS count).
    """
    scoped = _pattern_filter(df, cfd)
    return (
        scoped.groupBy(*cfd.lhs)
        .agg(F.countDistinct(cfd.rhs).alias("n_rhs"))
        .where(F.col("n_rhs") > 1)
    )


def satisfies(df: DataFrame, cfd: CFD) -> bool:
    """True iff ``df`` satisfies the CFD (no violating group)."""
    return violating_groups(df, cfd).limit(1).count() == 0
