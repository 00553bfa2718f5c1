"""Blocked similarity join as a Spark DataFrame pipeline.

DLearn "precomputes the pairs of similar values" (paper §5) for every MD
and keeps the top ``k_m`` matches per value (paper §6, Table 4). Spark
blocks and scores the candidate pairs of all MDs in one job:

1. blocking: explode each side's values into lowercase word tokens and
   join on a shared token (a candidate pair must share at least one word);
2. tag each MD's distinct candidate pairs with the MD's name and union
   them;
3. score the union with the paper's combined similarity in plain RDD
   partitions (no pandas or Arrow), one batched Gotoh DP per partition
   (:func:`~repro.simjoin.similarity.combined_similarity_batch`).

No threshold or top-k is applied here: ``SimTable.from_pairs``
(:mod:`repro.md.mdtypes`) applies each MD's threshold and the top-k cut.

Returned schema: ``md, left_value, right_value, sim``
(string, string, string, double).
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.md.mdtypes import MD
from repro.simjoin.similarity import combined_similarity_batch

_PAIR_SCHEMA = T.StructType(
    [
        T.StructField("md", T.StringType()),
        T.StructField("left_value", T.StringType()),
        T.StructField("right_value", T.StringType()),
        T.StructField("sim", T.DoubleType()),
    ]
)


_WORD_TOKENS = (
    "array_distinct(filter(split(lower(__value), '[^a-z0-9]+'),"
    " w -> length(w) >= 3))"
)


def _block_tokens(df: DataFrame, value_col: str) -> DataFrame:
    """Distinct ``(value, token)`` blocking keys: lowercase word tokens
    (len ≥ 3), falling back to the whole lowercased value for token-less
    strings. A candidate pair must share a word — the right recall filter
    for the word-level edits (abbreviations, dropped articles, typos in
    one word) these corpora exhibit."""
    return (
        df.select(F.col(value_col).alias("__value"))
        .where(F.col("__value").isNotNull())
        .withColumn(
            "token",
            F.explode(
                F.when(
                    F.size(F.expr(_WORD_TOKENS)) > 0, F.expr(_WORD_TOKENS)
                ).otherwise(F.array(F.lower("__value")))
            ),
        )
        .select("__value", "token")
        .distinct()
    )


def candidate_pairs(
    left: DataFrame, right: DataFrame, *, left_col: str, right_col: str
) -> DataFrame:
    """Distinct candidate ``(left_value, right_value)`` pairs sharing a word."""
    lt = _block_tokens(left, left_col).withColumnRenamed("__value", "left_value")
    rt = _block_tokens(right, right_col).withColumnRenamed("__value", "right_value")
    return lt.join(rt, "token").select("left_value", "right_value").distinct()


def _score_partition(rows):
    rows = list(rows)
    sims = combined_similarity_batch([(left, right) for _, left, right in rows])
    for (md, left, right), sim in zip(rows, sims):
        yield md, left, right, sim


def scored_pairs(mds: list[MD], frames: dict[str, DataFrame]) -> DataFrame:
    """Every candidate pair of every MD in ``mds`` (at least one), tagged
    with the MD's name and scored, over the relations in ``frames``."""
    tagged = [
        candidate_pairs(
            frames[md.left_rel],
            frames[md.right_rel],
            left_col=md.left_attr,
            right_col=md.right_attr,
        ).select(F.lit(md.name).alias("md"), "left_value", "right_value")
        for md in mds
    ]
    cands = reduce(DataFrame.unionByName, tagged)
    # Spread scoring across cores: AQE tends to coalesce the small
    # distinct() output to one partition, serialising the scoring.
    n_parts = cands.sparkSession.sparkContext.defaultParallelism * 2
    scored = cands.repartition(n_parts).rdd.mapPartitions(_score_partition)
    return cands.sparkSession.createDataFrame(scored, _PAIR_SCHEMA)
