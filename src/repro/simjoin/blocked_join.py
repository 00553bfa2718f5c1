"""Blocked top-k similarity join as a Spark DataFrame pipeline.

DLearn "precomputes the pairs of similar values" (paper §5) for every MD
and keeps the top ``k_m`` matches per left value (paper §6, Table 4). The
pipeline is pure DataFrame API:

1. distinct values on each side;
2. blocking: explode lowercase word tokens, join on shared token (a
   candidate pair must share at least one word);
3. score candidates with the paper's combined similarity inside
   ``mapInPandas`` (Arrow-vectorised);
4. keep pairs ≥ ``threshold`` and the top ``k_m`` per left value via a
   window.

Returned schema: ``left_value, right_value, sim`` (string, string, double).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.simjoin.similarity import combined_similarity

_PAIR_SCHEMA = T.StructType(
    [
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
    """Blocking keys: lowercase word tokens (len ≥ 3), falling back to
    the whole lowercased value for token-less strings. A candidate pair
    must share a word — the right recall filter for the word-level edits
    (abbreviations, dropped articles, typos in one word) these corpora
    exhibit."""
    return (
        df.select(F.col(value_col).alias("__value"))
        .where(F.col("__value").isNotNull())
        .distinct()
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


def _score_partition(iterator):
    import pandas as pd  # local import: runs on executors

    for pdf in iterator:
        sims = [
            combined_similarity(a, b)
            for a, b in zip(pdf["left_value"], pdf["right_value"])
        ]
        yield pd.DataFrame(
            {
                "left_value": pdf["left_value"],
                "right_value": pdf["right_value"],
                "sim": sims,
            }
        )


def topk_similar(
    left: DataFrame,
    right: DataFrame,
    *,
    left_col: str,
    right_col: str,
    k: int,
    threshold: float = 0.55,
) -> DataFrame:
    """Top-``k`` most similar right values per left value, above ``threshold``.

    This is the precomputed similar-pair table consulted by bottom-clause
    construction for each MD; ``k`` is the paper's ``k_m``.
    """
    cands = candidate_pairs(left, right, left_col=left_col, right_col=right_col)
    # Spread scoring across cores: AQE tends to coalesce the small
    # distinct() output to one partition, serialising the SWG UDF.
    n_parts = left.sparkSession.sparkContext.defaultParallelism * 2
    scored = cands.repartition(n_parts).mapInPandas(
        _score_partition, schema=_PAIR_SCHEMA
    )
    w = Window.partitionBy("left_value").orderBy(
        F.desc("sim"), F.asc("right_value")
    )
    return (
        scored.where(F.col("sim") >= threshold)
        .withColumn("__rank", F.row_number().over(w))
        .where(F.col("__rank") <= k)
        .drop("__rank")
    )
