"""CFD violation detection as a DataFrame pipeline (paper §2.3).

A pair of tuples violates ``(X → A, tp)`` when they agree on X, both
match the pattern, and disagree on A. Set-oriented formulation: among
pattern-matching rows, group by X and flag groups with > 1 distinct
RHS value (pattern-compatible). All Catalyst; oracle-checked in tests.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.cfd.cfdtypes import WILD, CFD


def in_scope(cfd: CFD) -> Column:
    """True on the rows that match the CFD's pattern constants."""
    conds = [F.col(attr) == F.lit(val) for attr, val in cfd.pattern if val != WILD]
    return reduce(lambda a, b: a & b, conds, F.lit(True))


def violating_groups(df: DataFrame, cfd: CFD) -> DataFrame:
    """LHS groups with more than one distinct RHS value (pattern scope).

    Returns one row per violating group: the LHS columns plus
    ``n_rhs`` (distinct RHS count).
    """
    return (
        df.where(in_scope(cfd))
        .groupBy(*cfd.lhs)
        .agg(F.countDistinct(cfd.rhs).alias("n_rhs"))
        .where(F.col("n_rhs") > 1)
    )

