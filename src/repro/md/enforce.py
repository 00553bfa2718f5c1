"""MD enforcement (paper §2.2) and Castor-Clean unification (§6.1.3).

Two consumers:

* :func:`stable_instance` — the chase of Definition 2.2 on small local
  data, used by tests to validate the semantics (Example 2.3: a value
  similar to two distinct values can be unified with only one per
  stable instance; the order of MD applications picks which).
* :func:`best_match_mapping` / :func:`unify_values` — the Castor-Clean
  baseline's cleaning pass: "matching each entity in one database with
  the most similar entity in the other database" (top-1 of the same
  similarity operator) and replacing the left values by their match, as
  a DataFrame pipeline.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.bottom_clause import merged_const
from repro.md.mdtypes import MD, SimTable


def stable_instance(
    tuples_left: list[tuple],
    tuples_right: list[tuple],
    *,
    left_idx: int,
    right_idx: int,
    sim_pairs: set[tuple[object, object]],
    order: list[tuple[int, int]] | None = None,
) -> tuple[list[tuple], list[tuple]]:
    """Chase one MD over two in-memory relations to a stable instance.

    ``sim_pairs`` holds (left_value, right_value) pairs deemed similar.
    ``order`` fixes which (left_row, right_row) applications happen and
    in what sequence (default: first-match greedy). Each application
    replaces both sides by the fresh merged value ``v_{a,b}``; a value
    already consumed by an earlier application no longer matches (its
    representation changed), so conflicting matches yield different
    stable instances under different orders — Example 2.3.
    """
    left = [list(t) for t in tuples_left]
    right = [list(t) for t in tuples_right]
    if order is None:
        order = [
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
        ]
    for i, j in order:
        a, b = left[i][left_idx], right[j][right_idx]
        if a == b:
            continue
        if (a, b) in sim_pairs:
            m = merged_const(a, b).value
            left[i][left_idx] = m
            right[j][right_idx] = m
    return [tuple(t) for t in left], [tuple(t) for t in right]


def best_match_mapping(sim_table: SimTable) -> dict:
    """Castor-Clean's resolution: each value of the dirty (right) side is
    matched to its single most similar left value (top-1 of the same
    similarity operator, ties broken as in the sim table)."""
    return {v: m[0][0] for v, m in sim_table.right_to_left.items() if m}


def unify_values(df: DataFrame, *, attr: str, mapping: dict) -> DataFrame:
    """Replace ``attr`` values of ``df`` per ``mapping`` (identity for
    unmapped values) — the cleaning pass before Castor-Clean learns."""
    if not mapping:
        return df
    spark = df.sparkSession
    pairs = spark.createDataFrame(
        list(mapping.items()), schema=f"`{attr}` STRING, __best STRING"
    )
    return (
        df.join(pairs, on=attr, how="left")
        .withColumn(attr, F.coalesce(F.col("__best"), F.col(attr)))
        .drop("__best")
    )
