"""The traced run: spans and counts taken from outside the program.

Each layer's public function is wrapped at the binding its caller uses
(``repro.core.dlearn.armg``, not ``repro.core.generalize.armg``), so the
program's own code is unchanged. Spans (name, start, end, parent) are
kept in memory and written out when the run ends; a span's self time is
its duration minus the time its child spans cover. Spark jobs are
attributed to layers through ``SparkContext.setJobGroup`` and read back
with ``statusTracker()``.
"""
from __future__ import annotations

import json
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.baselines.castor as castor
import repro.core.coverage as coverage
import repro.core.dlearn as dlearn
import repro.core.subsumption as subsumption
import repro.simjoin.blocked_join as blocked_join

# Job groups the benchmark sets; each maps to the per-layer job counter.
SPARK_GROUPS = {
    "simjoin": "simjoin.spark_jobs",
    "cfd.inject": "cfd.spark_jobs",
    "cfd.repair": "cfd.spark_jobs",
}


class Tracer:
    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []
        self._candidate_frames: list = []

    # -- spans ----------------------------------------------------------------
    @contextmanager
    def span(self, name: str, group: str | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        prev = self.sc.getLocalProperty("spark.jobGroup.id") if group else None
        if group:
            self.sc.setJobGroup(group, name)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if group:
                self.sc.setLocalProperty("spark.jobGroup.id", prev)

    def _wrap(self, owner, attr: str, name: str, group=None, after=None, before=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            with self.span(name, group) as rec:
                out = orig(*args, **kwargs)
            if after:
                after(args, kwargs, out, rec, state)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        c = self.counts

        def bottom(args, kwargs, out, rec, state):
            c["bottom_clause.calls"] += 1
            c["bottom_clause.literals"] += len(out.body)

        def subsumes(args, kwargs, out, rec, state):
            c["subsumption.subsumes.calls"] += 1
            c["subsumption.subsumes.true"] += bool(out)

        def reduce(args, kwargs, out, rec, state):
            c["subsumption.reduce.calls"] += 1
            c["subsumption.reduce.literals_removed"] += len(args[0].body) - len(out.body)

        def armg(args, kwargs, out, rec, state):
            c["generalize.armg.calls"] += 1
            if out is not None:
                c["generalize.armg.literals_dropped"] += len(args[0].body) - len(out.body)

        def expand(args, kwargs, out, rec, state):
            c["coverage.expand_repairs.calls"] += 1
            c["coverage.expand_repairs.at_cap"] += len(out) >= kwargs.get("max_repairs", 64)

        # The engines' memo size tells tests answered from the memo apart
        # from tests computed.
        def memo_size(args):
            return len(args[0]._cache)

        def local_covered(args, kwargs, out, rec, state):
            c["coverage.tests"] += len(args[2])
            c["coverage.distinct_tests"] += len(args[0]._cache) - state

        def spark_covered(args, kwargs, out, rec, state):
            jobs = len(self.sc.statusTracker().getJobIdsForGroup("coverage"))
            if jobs > c["coverage.spark_jobs_seen"]:  # dispatched, not served locally
                rows = len(args[0]._cache) - state
                c["coverage.spark_jobs_seen"] = jobs
                c["coverage.spark_dispatches"] += 1
                c["coverage.spark_rows"] += rows
                c["coverage.tests"] += len(args[1]) * len(args[2])
                c["coverage.distinct_tests"] += rows
                c["coverage.spark_s"] += rec[2] - rec[1]

        def collect(args, kwargs, out, rec, state):
            c["dbmodel.tuples"] += out.n_tuples()

        def candidates(args, kwargs, out, rec, state):
            self._candidate_frames.append(out)

        self._wrap(dlearn, "build_bottom_clause", "bottom_clause", after=bottom)
        self._wrap(dlearn, "reduce_clause", "subsumption.reduce", after=reduce)
        self._wrap(dlearn, "armg", "generalize.armg", after=armg)
        self._wrap(coverage, "subsumes", "subsumption.subsumes", after=subsumes)
        self._wrap(subsumption, "subsumes", "subsumption.subsumes", after=subsumes)
        self._wrap(coverage, "expand_repairs", "coverage.expand_repairs", after=expand)
        self._wrap(
            coverage.LocalCoverageEngine, "covered", "coverage",
            before=memo_size, after=local_covered,
        )
        self._wrap(
            coverage.SparkCoverageEngine, "covered_many", "coverage", group="coverage",
            before=memo_size, after=spark_covered,
        )
        self._wrap(castor, "repair_all", "cfd.repair", group="cfd.repair")
        self._wrap(castor, "unify_values", "md.unify")
        self._wrap(castor, "local_db_from_spark", "dbmodel.collect", after=collect)
        self._wrap(blocked_join, "candidate_pairs", "simjoin.candidates", after=candidates)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total duration and total self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_t[name] += end - start - child[i]
        return total, self_t

    def count_candidates(self) -> int:
        """Rows the blocking step handed to scoring (outside every span)."""
        self.sc.setJobGroup("trace.count", "count blocked candidate pairs")
        try:
            return sum(df.count() for df in self._candidate_frames)
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    def spark_jobs(self) -> dict[str, int]:
        st = self.sc.statusTracker()
        out: dict[str, int] = defaultdict(int)
        for group, metric in SPARK_GROUPS.items():
            out[metric] += len(st.getJobIdsForGroup(group))
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                [
                    {"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in self.spans
                ]
            )
        )


def per_layer_metrics(tracer: Tracer, rnd, system_names: list[str], wall_s: float) -> dict:
    """Every per-layer metric; layers a workload does not reach read 0."""
    c = tracer.counts
    total, self_t = tracer.totals()
    jobs = tracer.spark_jobs()
    subs = c["subsumption.subsumes.calls"]
    tests = c["coverage.tests"]
    values = {
        "datasets.generate_s": total["datasets.generate"],
        "simjoin.topk_s": total["simjoin.topk"],
        "simjoin.candidates": tracer.count_candidates(),
        "simjoin.pairs_kept": sum(
            len(v) for st in rnd.sim_tables.values() for v in st.left_to_right.values()
        ),
        "simjoin.spark_jobs": jobs["simjoin.spark_jobs"],
        "md.unify_s": total["md.unify"],
        "cfd.inject_s": total["cfd.inject"],
        "cfd.repair_s": total["cfd.repair"],
        "cfd.spark_jobs": jobs["cfd.spark_jobs"],
        "dbmodel.collect_s": total["dbmodel.collect"],
        "dbmodel.tuples": c["dbmodel.tuples"],
        "bottom_clause.calls": c["bottom_clause.calls"],
        "bottom_clause.s": total["bottom_clause"],
        "bottom_clause.literals_mean": c["bottom_clause.literals"]
        / max(1, c["bottom_clause.calls"]),
        "subsumption.subsumes.calls": subs,
        "subsumption.subsumes.self_s": self_t["subsumption.subsumes"],
        "subsumption.subsumes.true_ratio": c["subsumption.subsumes.true"] / max(1, subs),
        "subsumption.reduce.calls": c["subsumption.reduce.calls"],
        "subsumption.reduce.self_s": self_t["subsumption.reduce"],
        "subsumption.reduce.literals_removed": c["subsumption.reduce.literals_removed"],
        "generalize.armg.calls": c["generalize.armg.calls"],
        "generalize.armg.self_s": self_t["generalize.armg"],
        "generalize.armg.literals_dropped": c["generalize.armg.literals_dropped"],
        "coverage.tests": tests,
        "coverage.distinct_tests": c["coverage.distinct_tests"],
        "coverage.memo_hit_ratio": 1 - c["coverage.distinct_tests"] / max(1, tests),
        "coverage.self_s": self_t["coverage"],
        "coverage.expand_repairs.calls": c["coverage.expand_repairs.calls"],
        "coverage.expand_repairs.at_cap": c["coverage.expand_repairs.at_cap"],
        "coverage.spark_dispatches": c["coverage.spark_dispatches"],
        "coverage.spark_rows": c["coverage.spark_rows"],
        "coverage.spark_s": c["coverage.spark_s"],
        "dlearn.predict_s": total["dlearn.predict"],
        "dlearn.clauses": sum(len(d.clauses) for r in rnd.runs for d in r.definitions),
        "trace.wall_s": wall_s,
    }
    for name in system_names:
        values[f"dlearn.fit_s.{name}"] = total[f"dlearn.fit.{name}"]
    bench = json.loads((pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
