#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report the spread.

    python3 perfbench/steady.py --workloads movies-md,movies-scale --seeds 0-9 --traced 2

Every run is a fresh ``run.py`` process. For each workload it prints,
for every end-to-end metric, the median, the quartiles and the spread
(inter-quartile distance as a share of the median) over the untraced
runs, as ``statistics.quantiles(values, n=4)`` gives them; these are the
numbers the bounds in ``BENCHMARK.json`` are set from. Beside them it
prints the median and spread of the same times unscaled. The program's
inputs do not depend on the run seed, so it asserts that every untraced
run agrees exactly on F1 and the learned definitions' digests, and that
the traced runs of the first seed agree with them and with each other on
the solver-call and coverage-test counts. It reports the tracing overhead
as the median traced ``wall_s`` minus the median untraced ``wall_s``.
Exits 1 if any run fails a check or any of these differ.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    fingerprint = json.loads(lines[-2].removeprefix("fingerprint "))
    result = json.loads(lines[-1])
    result["unscaled"] = next(
        json.loads(line.removeprefix("unscaled ")) for line in lines if line.startswith("unscaled ")
    )
    return fingerprint, result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", default="0-4", help="e.g. 0-9 or 0,3,7")
    p.add_argument("--traced", type=int, default=0, help="traced runs of the first seed")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            fp, res = run_once(wl, seed, seconds, 0)
            runs.append((fp, res))
            print(f"{wl} seed={seed} attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.3f}" for k, v in res["metrics"].items()),
                  flush=True)
        failed = sum(res["failed"] for _, res in runs)
        attempted = sum(res["attempted"] for _, res in runs)
        print(f"\n{wl}: {len(runs)} runs, failed {failed} of {attempted} operations")
        ok &= failed == 0 and all(res["correct"] for _, res in runs)
        if len(runs) >= 2:
            print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}"
                  f" {'unscaled median':>16s} {'spread':>8s}")
            for name in runs[0][1]["metrics"]:
                med, q1, q3, sp = spread([res["metrics"][name]["value"] for _, res in runs])
                bound = bounds.get(name, float("nan"))
                flag = "" if sp < bound / 3 else "  above a third of the bound"
                plain = ""
                if name in runs[0][1]["unscaled"]:
                    umed, _, _, usp = spread([res["unscaled"][name] for _, res in runs])
                    plain = f" {umed:16.3f} {usp:8.3f}"
                print(f"{name:16s} {med:10.3f} {q1:10.3f} {q3:10.3f} {sp:8.3f} {bound:6.2f}{plain}{flag}")
        first_fp = runs[0][0]
        if any(fp != first_fp for fp, _ in runs[1:]):
            ok = False
            print(f"{wl}: F1 or definitions differ between runs: "
                  + " | ".join(json.dumps(fp, sort_keys=True) for fp, _ in runs))
        else:
            print(f"{wl}: F1 and definition digests identical in {len(runs)} runs: "
                  + json.dumps(first_fp, sort_keys=True))
        if args.traced:
            traced = [run_once(wl, seeds[0], seconds, 1) for _ in range(args.traced)]
            first = traced[0][0]
            same = all(fp == first for fp, _ in traced[1:])
            same &= all(first[k] == first_fp[k] for k in ("f1", "definitions"))
            ok &= same
            print(f"{wl} seed={seeds[0]} traced counts: solver_calls={first['solver_calls']:.0f} "
                  f"coverage_tests={first['coverage_tests']:.0f} "
                  f"spark_dispatches={first['spark_dispatches']:.0f} "
                  f"{'identical' if same else 'DIFFER'} in {len(traced)} traced runs")
            traced_wall = statistics.median(r["metrics"]["trace.wall_s"]["value"] for _, r in traced)
            plain_wall = statistics.median(r["metrics"]["wall_s"]["value"] for _, r in runs)
            print(f"{wl} tracing overhead: {traced_wall - plain_wall:+.2f} s on wall_s "
                  f"({traced_wall:.2f} traced vs {plain_wall:.2f} untraced)")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
