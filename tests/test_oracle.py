"""The DuckDB oracle accepts an equal result and rejects a wrong one."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

ORDERS = pd.DataFrame(
    {"o_key": [1, 2, 3, 4], "priority": ["high", "low", "low", "high"]}
)
ITEMS = pd.DataFrame(
    {"i_order": [1, 1, 2, 3, 3, 3, 4], "flag": ["A", "R", "A", "N", "N", "R", "A"]}
)
BY_FLAG = "SELECT flag, COUNT(*) AS n FROM items GROUP BY flag"


class TestOracle:
    def test_join_aggregate_equivalence(self, spark):
        items, orders = spark.createDataFrame(ITEMS), spark.createDataFrame(ORDERS)
        got = (
            items.join(orders, items.i_order == orders.o_key)
            .groupBy("priority")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            """
            SELECT priority, COUNT(*) AS n
            FROM items JOIN orders ON i_order = o_key
            GROUP BY priority
            """,
            items=items,
            orders=orders,
        )

    def test_oracle_catches_wrong_result(self, spark):
        items = spark.createDataFrame(ITEMS)
        got = items.groupBy("flag").agg((F.count("*") + 1).alias("n"))
        with pytest.raises(AssertionError):
            assert_equivalent(got, BY_FLAG, items=items)

    def test_oracle_catches_column_mismatch(self, spark):
        items = spark.createDataFrame(ITEMS)
        got = items.groupBy("flag").agg(F.count("*").alias("wrong_name"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, BY_FLAG, items=items)
