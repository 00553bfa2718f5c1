"""Shared SparkSession builder for the spark-submit job entrypoints.

Jobs run standalone (``python jobs/table4.py`` or spark-submit); tests
use the ``spark`` fixture from ``conftest.py`` instead.
"""
import json
import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    """A session whose Python workers import ``repro`` from this checkout."""
    s = (
        SparkSession.builder.master(os.environ.get("SPARK_MASTER", "local[*]"))
        .appName(app)
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.memory", os.environ.get("SPARK_DRIVER_MEM", "8g"))
        .config("spark.executorEnv.PYTHONPATH", SRC)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(name: str, rows: list[dict], columns: list[str]) -> None:
    """Print the markdown table and persist rows under results/."""
    from repro.eval.harness import format_table

    out_dir = pathlib.Path(__file__).resolve().parents[1] / "results"
    out_dir.mkdir(exist_ok=True)
    md = format_table(rows, columns)
    print(md, flush=True)
    (out_dir / f"{name}.md").write_text(md + "\n")
    (out_dir / f"{name}.json").write_text(json.dumps(rows, indent=2))
