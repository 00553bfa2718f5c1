"""Cross-validation harness producing the paper's (F1, Time) cells.

``evaluate_system`` runs one system over one dataset with k-fold CV
(paper: 5 folds) and reports the mean F1 over held-out folds and the
mean learning wall-time per fold — the two numbers every cell of
Tables 4–7 carries.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.baselines.castor import SystemConfig, build_learner
from repro.core.coverage import SparkCoverageEngine
from repro.core.dlearn import timed_fit
from repro.datasets.base import DirtyDataset
from repro.eval.metrics import Scores, kfold_splits, score_predictions
from repro.md.mdtypes import SimTable


@dataclass
class FoldResult:
    scores: Scores
    train_seconds: float
    n_clauses: int


@dataclass
class SystemResult:
    dataset: str
    system: str
    folds: list[FoldResult] = field(default_factory=list)

    @property
    def f1(self) -> float:
        return (
            sum(f.scores.f1 for f in self.folds) / len(self.folds)
            if self.folds
            else 0.0
        )

    @property
    def time_minutes(self) -> float:
        return (
            sum(f.train_seconds for f in self.folds) / len(self.folds) / 60.0
            if self.folds
            else 0.0
        )

    def row(self) -> dict:
        return {
            "dataset": self.dataset,
            "system": self.system,
            "f1": round(self.f1, 3),
            "time_min": round(self.time_minutes, 3),
        }


def evaluate_system(
    spark: SparkSession,
    ds: DirtyDataset,
    cfg: SystemConfig,
    *,
    system_name: str,
    n_folds: int = 5,
    seed: int = 0,
    sim_tables: dict[str, SimTable] | None = None,
    use_spark_coverage: bool = False,
    max_folds: int | None = None,
) -> SystemResult:
    """k-fold CV of one system; returns per-fold scores and timings."""
    engine_factory = None
    if use_spark_coverage:
        engine_factory = lambda store: SparkCoverageEngine(spark, store)
    learner = build_learner(
        spark, ds, cfg, sim_tables=sim_tables, engine_factory=engine_factory
    )
    result = SystemResult(dataset=ds.name, system=system_name)
    folds = kfold_splits(ds.pos, ds.neg, n_folds, seed=seed)
    if max_folds is not None:
        folds = folds[:max_folds]
    for train_p, train_n, test_p, test_n in folds:
        definition, dt = timed_fit(learner, train_p, train_n)
        pos_pred = learner.predict(definition, test_p)
        neg_pred = learner.predict(definition, test_n)
        result.folds.append(
            FoldResult(
                scores=score_predictions(pos_pred, neg_pred),
                train_seconds=dt,
                n_clauses=len(definition.clauses),
            )
        )
    return result


def format_table(rows: list[dict], columns: list[str]) -> str:
    """Render result rows as a GitHub-flavoured markdown table."""
    header = "| " + " | ".join(columns) + " |"
    sep = "|" + "|".join("---" for _ in columns) + "|"
    lines = [header, sep]
    for r in rows:
        lines.append("| " + " | ".join(str(r.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)
