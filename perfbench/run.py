#!/usr/bin/env python3
"""DLearn end-to-end benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload movies-md --seed 0 --seconds 10 --trace 0

Starts one local Spark session, runs whole rounds of the workload (see
``workloads.py``) until ``--seconds`` of rounds have been measured, checks
the outputs (``checks.py``) and prints one JSON result line last. With
``--trace 0`` the line carries the end-to-end metrics; with ``--trace 1``
the layers are wrapped (``tracing.py``) and it carries the per-layer
metrics, and the spans are written to ``.bench_out/``. The line before
it, ``fingerprint {...}``, holds what must repeat exactly for a seed:
per-system F1 and learned-definition digests, and in a traced run the
solver-call and coverage-test counts.

The driver thread runs pinned to one vCPU and Spark to the others.
Every time metric is scaled to a nominal machine speed measured while
its phase runs (``speed.py``); the line ``unscaled {...}`` gives the same
phases in plain wall seconds.

Run it from the root of the repository; it builds nothing and reads and
writes only inside that directory.
"""
from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started (Linux); 0 where unknown."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


T_START = time.perf_counter() - _process_age()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORES = 2  # Spark task slots, at most one per vCPU left to Spark
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
SIM_SAMPLE = 12  # left values per MD checked against the reference


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_spark(workdir: pathlib.Path, cores: int):
    """One local session with a fixed shape; ready once Python workers ran."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    # The JVMs write nothing outside the checkout: no perf-data files in /tmp.
    jvm_opts = f"-Djava.io.tmpdir={workdir} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts  # spark-submit's launcher JVM
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("dlearn-perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.extraJavaOptions", jvm_opts)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    # A trivial job on every core, so JVM and Python-worker start-up are
    # paid here and not in the first timed phase.
    spark.sparkContext.parallelize(range(cores), cores).map(lambda x: x + 1).sum()
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit; the JVM
    exits when its standard input closes."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()
    proc.wait(timeout=60)


def definition_digest(definition) -> str:
    """Order-insensitive digest of a learned definition's clauses."""

    def lit(l) -> str:
        return f"{l.pred}[{l.constraint}#{l.group}.{l.alt}]{l.args!r}"

    clauses = sorted(
        lit(c.head) + ":-" + "|".join(sorted(lit(b) for b in c.body))
        for c in definition.clauses
    )
    return hashlib.sha256("\n".join(clauses).encode()).hexdigest()[:16]


def run_checks(wl, rnd, seed: int):
    """Every correctness check of the workload, after the timed phases."""
    from repro.cfd.repair import repair_all
    from repro.cfd.violations import violating_groups
    from repro.core.coverage import LocalCoverageEngine
    from repro.core.subsumption import find_substitution

    import checks
    import workloads

    tally = checks.Tally()
    ds = rnd.dataset
    for md in ds.mds:
        lefts = ds.frames[md.left_rel].select(md.left_attr).toPandas()[md.left_attr]
        rights = ds.frames[md.right_rel].select(md.right_attr).toPandas()[md.right_attr]
        checks.check_sim_table(
            tally, rnd.sim_tables[md.name], lefts.dropna().tolist(),
            rights.dropna().tolist(), k=workloads.SIM_K, sample=SIM_SAMPLE, seed=seed,
        )
    for run in rnd.runs:
        learner = run.learner
        for fold, definition in zip(rnd.folds, run.definitions):
            held_out = list(fold[2]) + list(fold[3])
            store = learner.ground_store(held_out)
            for ci, clause in enumerate(definition.clauses):
                label = f"{run.system.name}#{ci}"
                for ex in held_out:
                    ge = store.examples[ex].ge
                    theta = find_substitution(clause, ge)
                    if theta is not None:
                        checks.check_witness(tally, clause, ge, theta, f"{label} {ex}")
                checks.check_coverage_order(
                    tally, clause, held_out,
                    lambda: LocalCoverageEngine(store, max_repairs=learner.cfg.max_repairs),
                    label,
                )
        if run.system.spark_coverage:
            checks.check_spark_dispatch(tally, run.system.name, run.coverage_jobs)
    f1 = {r.system.name: r.f1 for r in rnd.runs}
    castor = {r.system.name for r in rnd.runs if r.system.is_castor}
    if castor:
        checks.check_f1_order(tally, f1, castor)
    if wl.cfd_rate:
        repaired_cfg = next(r.system.cfg for r in rnd.runs if r.system.cfg.repair_data)
        repaired = repair_all(dict(ds.frames), ds.cfds, seed=repaired_cfg.seed)
        rels = {c.rel for c in ds.cfds}
        checks.check_repairs(
            tally, ds.cfds,
            {r: ds.frames[r].toPandas() for r in rels},
            {r: repaired[r].toPandas() for r in rels},
            {c.name: violating_groups(ds.frames[c.rel], c).count() for c in ds.cfds},
        )
    return tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The probe runs from here on, so set-up is scaled from the imports on.
    probe = speed.SpeedProbe(sorted(os.sched_getaffinity(0)))
    probe.start()
    try:
        return measure(args, probe, probe.mark())
    finally:
        probe.stop()


def measure(args: argparse.Namespace, probe, started) -> int:
    """Set up, run the rounds, check them and print the result line."""
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # The driver gets a vCPU of its own and Spark's JVM and Python workers
    # the others; the JVM inherits the mask it is launched under.
    driver_cpu, spark_cpus = probe.cpus[-1], (probe.cpus[:-1] or probe.cpus)
    spark = None
    try:
        os.sched_setaffinity(0, spark_cpus)
        spark = start_spark(workdir, min(CORES, len(spark_cpus)))
        os.sched_setaffinity(0, {driver_cpu})
        ready = probe.mark()

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(spark)
            tracer.install()
        rounds = []
        measured = 0.0
        while not rounds or measured < args.seconds:
            rnd = workloads.run_round(spark, wl, probe.mark, tracer.span if tracer else None)
            measured += rnd.raw_s()
            rounds.append(rnd)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe.stop()  # the checks below are not timed
        if tracer:
            tracer.restore()

        def scaled(r, kind=None) -> float:
            return sum(probe.scaled(m0, m1) for m0, m1 in r.intervals(kind))

        med = statistics.median
        # Interpreter start-up, before the probe runs, is counted unscaled.
        setup_s = started[0] - T_START + probe.scaled(started, ready)
        wall_s = setup_s + med(scaled(r) for r in rounds)
        rnd = rounds[0]
        fingerprint = {
            "f1": {r.system.name: round(r.f1, 6) for r in rnd.runs},
            "definitions": {
                r.system.name: [definition_digest(d) for d in r.definitions] for r in rnd.runs
            },
        }
        if tracer:
            fingerprint["solver_calls"] = tracer.counts["subsumption.subsumes.calls"]
            fingerprint["coverage_tests"] = tracer.counts["coverage.tests"]
            fingerprint["spark_dispatches"] = tracer.counts["coverage.spark_dispatches"]
            metrics = tracing.per_layer_metrics(tracer, rnd, workloads.ALL_SYSTEMS, wall_s)
            tracer.dump(ROOT / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "prepare_s": {"value": med(scaled(r, "prepare") for r in rounds), "unit": "s"},
                "learn_s": {"value": med(scaled(r, "learn") for r in rounds), "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "driver_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        raw_setup_s = ready[0] - T_START
        raw = {
            "setup_s": raw_setup_s,
            "prepare_s": med(r.raw_s("prepare") for r in rounds),
            "learn_s": med(r.raw_s("learn") for r in rounds),
            "wall_s": raw_setup_s + med(r.raw_s() for r in rounds),
        }
        print("unscaled " + json.dumps(raw, sort_keys=True))
        tally = run_checks(wl, rnd, args.seed)
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in tally.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
