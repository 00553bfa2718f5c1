"""CFD engine tests over Spark DataFrames, oracle-checked (paper §2.3,
§6.1.2)."""
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.cfd.cfdtypes import WILD, CFD
from repro.cfd.inject import inject_violations
from repro.cfd.repair import minimal_repair, repair_all
from repro.cfd.violations import violating_groups
from repro.oracle import assert_equivalent

CFD_KEY = CFD("key", "r", ("id",), "val")
CFD_PATTERN = CFD(
    "eng", "mov2locale", ("title", "language"), "country",
    pattern=(("language", "English"),),
)


def satisfies(df: DataFrame, cfd: CFD) -> bool:
    """True iff ``df`` satisfies the CFD (no violating group)."""
    return violating_groups(df, cfd).limit(1).count() == 0


@pytest.fixture()
def locale_df(spark):
    """The paper's §2.3 example: Bait/English in USA and Ireland."""
    pdf = pd.DataFrame(
        {
            "title": ["Bait", "Bait", "Bait", "Lure", "Lure"],
            "language": ["English", "English", "French", "English", "English"],
            "country": ["USA", "Ireland", "France", "UK", "UK"],
        }
    )
    return spark.createDataFrame(pdf)


class TestViolationDetection:
    def test_paper_example_violates(self, locale_df):
        groups = violating_groups(locale_df, CFD_PATTERN)
        rows = groups.collect()
        assert len(rows) == 1 and rows[0]["title"] == "Bait"

    def test_pattern_scopes_detection(self, locale_df):
        # French rows are out of the pattern's scope -> no violation.
        assert satisfies(
            locale_df.where(F.col("language") != "English"), CFD_PATTERN
        )

    def test_oracle_agreement(self, locale_df):
        """DuckDB cross-check of the violating-group query."""
        got = violating_groups(locale_df, CFD_PATTERN).select(
            "title", "language", "n_rhs"
        )
        assert_equivalent(
            got,
            """
            SELECT title, language, COUNT(DISTINCT country) AS n_rhs
            FROM mov2locale
            WHERE language = 'English'
            GROUP BY title, language
            HAVING COUNT(DISTINCT country) > 1
            """,
            mov2locale=locale_df,
        )

    def test_satisfies_clean(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": ["a", "b"], "val": ["1", "2"]})
        )
        assert satisfies(df, CFD_KEY)


class TestInjection:
    def _base(self, spark, n=200):
        return spark.createDataFrame(
            pd.DataFrame(
                {"id": [f"e{i}" for i in range(n)], "val": [f"v{i % 23}" for i in range(n)]}
            )
        )

    def test_injects_violations(self, spark):
        df = self._base(spark)
        out = inject_violations(df, CFD_KEY, p=0.10, seed=1)
        assert not satisfies(out, CFD_KEY)

    def test_rate_roughly_p(self, spark):
        df = self._base(spark, n=400)
        out = inject_violations(df, CFD_KEY, p=0.10, seed=1)
        extra = out.count() - 400
        assert 20 <= extra <= 60  # ~10% duplicated

    def test_p_zero_identity(self, spark):
        df = self._base(spark, n=50)
        out = inject_violations(df, CFD_KEY, p=0.0, seed=1)
        assert out.count() == 50 and satisfies(out, CFD_KEY)

    def test_deterministic(self, spark):
        df = self._base(spark, n=100)
        a = sorted(map(tuple, inject_violations(df, CFD_KEY, p=0.2, seed=5).collect()))
        b = sorted(map(tuple, inject_violations(df, CFD_KEY, p=0.2, seed=5).collect()))
        assert a == b

    def test_one_value_rhs_gets_no_copy(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": [f"e{i}" for i in range(50)], "val": ["v"] * 50})
        )
        out = inject_violations(df, CFD_KEY, p=0.5, seed=1)
        assert out.count() == 50

    def test_original_rows_retained(self, spark):
        df = self._base(spark, n=60)
        out = inject_violations(df, CFD_KEY, p=0.3, seed=2)
        orig = {tuple(r) for r in df.collect()}
        new = {tuple(r) for r in out.collect()}
        assert orig <= new


class TestMinimalRepair:
    def test_removes_violations(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame(
                {"id": ["a", "a", "b"], "val": ["1", "2", "3"]}
            )
        )
        out = minimal_repair(df, CFD_KEY, seed=0)
        assert satisfies(out, CFD_KEY)

    def test_keeps_one_of_the_values(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": ["a", "a"], "val": ["1", "2"]})
        )
        rows = minimal_repair(df, CFD_KEY, seed=0).collect()
        assert len(rows) == 1 and rows[0]["val"] in ("1", "2")

    def test_pattern_scope_untouched(self, spark, locale_df):
        out = minimal_repair(locale_df, CFD_PATTERN, seed=0)
        assert satisfies(out, CFD_PATTERN)
        # the French row is outside the pattern and must be unchanged
        fr = out.where(F.col("language") == "French").collect()
        assert len(fr) == 1 and fr[0]["country"] == "France"

    def test_oracle_row_count(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": ["a", "a", "b", "b", "c"], "val": list("12345")})
        )
        out = minimal_repair(df, CFD_KEY, seed=0)
        got = out.groupBy().agg(
            F.count("*").alias("n"), F.countDistinct("id").alias("ids")
        )
        assert_equivalent(
            got,
            "SELECT COUNT(DISTINCT id) AS n, COUNT(DISTINCT id) AS ids FROM r",
            r=df,
        )

    def test_repair_all_one_pass(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": ["a", "a", "b"], "val": ["1", "2", "3"]})
        )
        out = repair_all({"r": df}, [CFD_KEY], seed=0)
        assert satisfies(out["r"], CFD_KEY)

    def test_repair_all_rejects_two_cfds_on_one_relation(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": ["a", "a"], "val": ["1", "2"], "w": ["x", "y"]})
        )
        other = CFD("key_w", "r", ("id",), "w")
        with pytest.raises(ValueError, match="one CFD per relation"):
            repair_all({"r": df}, [CFD_KEY, other], seed=0)

    def test_repair_after_injection_roundtrip(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame(
                {"id": [f"e{i}" for i in range(100)], "val": [f"v{i%7}" for i in range(100)]}
            )
        )
        dirty = inject_violations(df, CFD_KEY, p=0.2, seed=3)
        repaired = repair_all({"r": dirty}, [CFD_KEY], seed=0)["r"]
        assert satisfies(repaired, CFD_KEY)
        assert repaired.count() == repaired.select("id").distinct().count()
