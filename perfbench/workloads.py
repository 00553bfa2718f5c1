"""The benchmark's workloads and the timed round that runs one of them.

A round drives the program only through the calls the table drivers use
(``movies.generate``, ``inject_dataset``, ``compute_sim_tables``,
``build_learner``, ``DLearn.fit``, ``DLearn.predict``, ``kfold_splits``)
and stamps the boundaries of its phases, from which the end-to-end
metrics are made.
Sizes are chosen so one run, Spark start-up and checks included, stays near a
minute on a 4-core machine; the reasons for each workload are in
``README.md``.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.baselines.castor import SystemConfig, build_learner, compute_sim_tables
from repro.cfd.inject import inject_dataset
from repro.core.coverage import SparkCoverageEngine
from repro.datasets import movies
from repro.eval.metrics import Scores, kfold_splits, score_predictions

N_FOLDS = 3  # the SMOKE-scale table drivers' 3-fold split
SIM_K = 10  # similarity tables are computed once at the largest k_m
# Every run learns over the corpus of dataset seed 0. Learning time over
# corpora of different seeds differs by up to 2x (one fit: 10.2 s on seed
# 0, 21.1 s on seed 1), far beyond any regression bound, so the run seed
# only picks the sample the similarity check draws (see README.md).
CORPUS_SEED = 0


@dataclass(frozen=True)
class System:
    """One of the paper's systems: a display name and its configuration."""

    name: str
    cfg: SystemConfig
    spark_coverage: bool = False

    @property
    def is_castor(self) -> bool:
        return self.cfg.mode != "dlearn"


@dataclass(frozen=True)
class Workload:
    name: str
    n_movies: int
    n_pos: int
    n_neg: int
    systems: tuple[System, ...]
    folds: tuple[int, ...]  # which folds of the 3-fold split are learned
    cfd_rate: float = 0.0  # share of tuples given a CFD violation (0: none)


def _sys(name: str, mode: str, **kw) -> System:
    spark_coverage = kw.pop("spark_coverage", False)
    return System(name, SystemConfig(mode=mode, d=4, min_pos=3, **kw), spark_coverage)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Table 4's one-MD row on two folds of three: learning
        # dominates, coverage takes only the MD-only fast path, CFD code
        # does nothing, and Castor-Clean runs the MD unification.
        Workload(
            "movies-md",
            n_movies=180,
            n_pos=20,
            n_neg=40,
            folds=(0, 1),
            systems=(
                _sys("castor-clean", "clean", k_m=10),
                _sys("dlearn-k2", "dlearn", k_m=2),
            ),
        ),
        # Table 6's dirty corpus (p = 0.10) at a size where coverage is
        # sent to Spark: CFD injection and repair, the largest Spark side
        # and ground store, and the only mapInPandas coverage. Fold 0
        # sends two grids to Spark, of 700 and 600 rows, against the
        # engine's 600-row threshold; a run checks that at least one went.
        Workload(
            "movies-scale",
            n_movies=300,
            n_pos=75,
            n_neg=150,
            cfd_rate=0.10,
            folds=(0,),
            systems=(
                _sys("dlearn-repaired-spark", "dlearn", k_m=2, repair_data=True,
                     spark_coverage=True),
            ),
        ),
    )
}

ALL_SYSTEMS: list[str] = [s.name for w in WORKLOADS.values() for s in w.systems]


@dataclass
class SystemRun:
    """One system's learner and, per learned fold, its definition and scores."""

    system: System
    learner: object
    coverage_jobs: int = 0  # Spark jobs run in the fits' "coverage" job group
    definitions: list = field(default_factory=list)
    scores: list[Scores] = field(default_factory=list)

    @property
    def f1(self) -> float:
        """Mean F1 over the learned folds, as the table drivers report it."""
        return sum(s.f1 for s in self.scores) / len(self.scores)


@dataclass
class Round:
    """What one timed pass over a workload produced.

    ``marks`` are the boundaries of the pass's intervals, as returned by
    the ``mark`` passed to ``run_round``; ``kinds[i]`` says which phase
    the interval from ``marks[i]`` to ``marks[i + 1]`` belongs to:
    ``prepare``, ``learn`` or ``other`` (splits, predictions, job-group
    bookkeeping).
    """

    dataset: object
    sim_tables: dict
    folds: list  # (train_pos, train_neg, test_pos, test_neg) per learned fold
    marks: list = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    runs: list[SystemRun] = field(default_factory=list)

    def intervals(self, kind: str | None = None):
        """(start mark, end mark) of every interval of ``kind`` (all if None)."""
        return [
            (m0, m1)
            for k, m0, m1 in zip(self.kinds, self.marks, self.marks[1:])
            if kind is None or k == kind
        ]

    def raw_s(self, kind: str | None = None) -> float:
        """Wall seconds of the intervals of ``kind``."""
        return sum(m1[0] - m0[0] for m0, m1 in self.intervals(kind))


def run_round(spark, wl: Workload, mark, span=None) -> Round:
    """One pass: prepare the data, then build, fit and predict per system.

    ``span(name, group)`` is an optional context-manager factory the
    traced run passes in to mark the phases; timing here never depends
    on it. ``mark()`` stamps the phase boundaries; the first element of
    what it returns is ``time.perf_counter()``.
    """
    span = span or (lambda name, group=None: nullcontext())
    sc = spark.sparkContext
    marks = [mark()]
    kinds: list[str] = []

    def lap(kind: str) -> None:
        marks.append(mark())
        kinds.append(kind)

    with span("datasets.generate"):
        ds = movies.generate(
            spark, n_movies=wl.n_movies, n_pos=wl.n_pos, n_neg=wl.n_neg, seed=CORPUS_SEED
        )
    if wl.cfd_rate:
        with span("cfd.inject", "cfd.inject"):
            ds = inject_dataset(ds, p=wl.cfd_rate, seed=CORPUS_SEED)
    with span("simjoin.topk", "simjoin"):
        sim = compute_sim_tables(ds, k=SIM_K)
    lap("prepare")
    splits = kfold_splits(ds.pos, ds.neg, N_FOLDS, seed=CORPUS_SEED)
    rnd = Round(ds, sim, [splits[f] for f in wl.folds], marks, kinds)
    for system in wl.systems:
        factory = None
        if system.spark_coverage:
            factory = lambda store: SparkCoverageEngine(spark, store)  # noqa: E731
        lap("other")
        with span(f"prepare.build.{system.name}"):
            learner = build_learner(spark, ds, system.cfg, sim_tables=sim, engine_factory=factory)
        lap("prepare")
        run = SystemRun(system, learner)
        for train_p, train_n, test_p, test_n in rnd.folds:
            jobs = len(sc.statusTracker().getJobIdsForGroup("coverage"))
            sc.setJobGroup("coverage", f"{system.name} fit")
            lap("other")
            with span(f"dlearn.fit.{system.name}"):
                definition = learner.fit(train_p, train_n)
            lap("learn")
            sc.setLocalProperty("spark.jobGroup.id", None)
            run.coverage_jobs += len(sc.statusTracker().getJobIdsForGroup("coverage")) - jobs
            with span("dlearn.predict"):
                pos_pred = learner.predict(definition, test_p)
                neg_pred = learner.predict(definition, test_n)
            run.definitions.append(definition)
            run.scores.append(score_predictions(pos_pred, neg_pred))
        rnd.runs.append(run)
    lap("other")
    return rnd
