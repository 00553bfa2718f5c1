"""Correctness checks run after the timed phases.

Every check is computed apart from the program: the similarity reference
is written here from the paper's definition, the witness check re-reads
the substitution literal by literal, the repair checks ask DuckDB, and
the two ordering checks are properties the method must have. Each
individual test is one operation of the result line; a violation is a
failed operation.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import duckdb
import pandas as pd

from repro.cfd.cfdtypes import WILD
from repro.core.clause import EQ, REPAIR, SIM, Var

# Smith-Waterman-Gotoh parameters of the paper's similarity operator.
MATCH, MISMATCH, GAP_OPEN, GAP_EXTEND = 2.0, -1.0, -2.0, -0.5
SCORE_TOL = 1e-9


@dataclass
class Tally:
    """Counts tests and keeps the first few violation messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# -- similarity tables -------------------------------------------------------


def gotoh_local(a: str, b: str) -> float:
    """Best local-alignment score with affine gaps (Gotoh 1982), plain loops."""
    n, m = len(a), len(b)
    neg = float("-inf")
    h_prev = [0.0] * (m + 1)
    f_prev = [neg] * (m + 1)
    best = 0.0
    for i in range(1, n + 1):
        h = [0.0] * (m + 1)
        f = [neg] * (m + 1)
        e = neg
        for j in range(1, m + 1):
            e = max(h[j - 1] + GAP_OPEN, e + GAP_EXTEND)
            f[j] = max(h_prev[j] + GAP_OPEN, f_prev[j] + GAP_EXTEND)
            s = MATCH if a[i - 1] == b[j - 1] else MISMATCH
            h[j] = max(0.0, h_prev[j - 1] + s, e, f[j])
            best = max(best, h[j])
        h_prev, f_prev = h, f
    return best


def reference_similarity(a: str, b: str) -> float:
    """Average of normalised SWG (by 2 x shorter length) and length ratio."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        swg = 1.0 if n == m else 0.0
        length = 1.0 if n == m else 0.0
    else:
        swg = gotoh_local(a.lower(), b.lower()) / (MATCH * min(n, m))
        length = min(n, m) / max(n, m)
    return 0.5 * (swg + length)


def block_tokens(value: str) -> set[str]:
    """Lower-cased word tokens of length >= 3, else the whole lower-cased value."""
    low = value.lower()
    words = {w for w in re.split(r"[^a-z0-9]+", low) if len(w) >= 3}
    return words or {low}


def reference_topk(
    left: str, rights_by_token: dict[str, set[str]], *, k: int, threshold: float
) -> list[tuple[str, float]]:
    cands = set().union(*(rights_by_token.get(t, ()) for t in block_tokens(left)))
    scored = [(r, reference_similarity(left, r)) for r in cands]
    kept = sorted(((r, s) for r, s in scored if s >= threshold), key=lambda p: (-p[1], p[0]))
    return kept[:k]


def check_sim_table(
    tally: Tally,
    table,
    left_values: list[str],
    right_values: list[str],
    *,
    k: int,
    sample: int,
    seed: int,
) -> None:
    """Top-k list and scores of a seeded sample of left values."""
    rights_by_token: dict[str, set[str]] = {}
    for r in set(right_values):
        for t in block_tokens(r):
            rights_by_token.setdefault(t, set()).add(r)
    lefts = sorted(set(left_values))
    picked = random.Random(seed).sample(lefts, min(sample, len(lefts)))
    for lv in picked:
        want = reference_topk(lv, rights_by_token, k=k, threshold=table.md.threshold)
        got = table.left_to_right.get(lv, [])
        ok = [r for r, _ in got] == [r for r, _ in want] and all(
            abs(s1 - s2) <= SCORE_TOL for (_, s1), (_, s2) in zip(got, want)
        )
        tally.check(ok, f"sim {table.md.name} {lv!r}: got {got[:3]}... want {want[:3]}...")


# -- witness of a substitution ----------------------------------------------


def _apply(theta: dict, args: tuple) -> tuple:
    return tuple(theta.get(a, a) if isinstance(a, Var) else a for a in args)


def check_witness(tally: Tally, clause, ground, theta: dict, label: str) -> None:
    """head(C)θ = head(G_e); relation and repair literals of Cθ are in
    G_e (repairs under the same constraint); SIM/EQ literals hold."""
    rel = {(l.pred, l.args) for l in ground.body if l.pred not in (SIM, EQ, REPAIR)}
    rep = {(l.constraint, l.args) for l in ground.body if l.pred == REPAIR}
    pairs = {
        p: {frozenset(l.args) for l in ground.body if l.pred == p} for p in (SIM, EQ)
    }
    ok = (clause.head.pred, _apply(theta, clause.head.args)) == (
        ground.head.pred,
        ground.head.args,
    )
    for lit in clause.body:
        args = _apply(theta, lit.args)
        if lit.pred in (SIM, EQ):
            ok = ok and (args[0] == args[1] or frozenset(args) in pairs[lit.pred])
        elif lit.pred == REPAIR:
            ok = ok and (lit.constraint, args) in rep
        else:
            ok = ok and (lit.pred, args) in rel
    tally.check(ok, f"witness {label}")


# -- coverage semantics -------------------------------------------------------


def check_coverage_order(tally: Tally, clause, keys: list, make_engine, label: str) -> None:
    """Covered as a positive (Def. 3.4) implies covered as a negative
    (Def. 3.6); each semantics is asked of its own fresh engine. The two
    definitions differ only for a clause or example with CFD repair
    literals; for any other pair the answers coincide."""
    pos = make_engine().covered(clause, keys, positive=True)
    neg = make_engine().covered(clause, keys, positive=False)
    for key, p, n in zip(keys, pos, neg):
        tally.check(n or not p, f"coverage order {label} {key}")


def check_spark_dispatch(tally: Tally, system: str, jobs: int) -> None:
    """A system run with the Spark coverage engine sent coverage to the
    executors at least once (one Spark job per ``mapInPandas`` grid)."""
    tally.check(jobs >= 1, f"{system}: no coverage grid went to Spark")


# -- paper ordering -------------------------------------------------------------


def check_f1_order(tally: Tally, f1_by_system: dict[str, float], castor: set[str]) -> None:
    """Paper Table 4: DLearn's F1 is at least that of every Castor baseline."""
    for d, fd in f1_by_system.items():
        if d in castor:
            continue
        for c in castor:
            tally.check(fd >= f1_by_system[c], f"F1 {d}={fd:.3f} < {c}={f1_by_system[c]:.3f}")


# -- CFD repairs against DuckDB ---------------------------------------------


def _scope_sql(cfd) -> str:
    conds = [f'"{a}" = \'{v}\'' for a, v in cfd.pattern if v != WILD]
    return " WHERE " + " AND ".join(conds) if conds else ""


def duckdb_violating_groups(pdf: pd.DataFrame, cfd) -> int:
    lhs = ", ".join(f'"{a}"' for a in cfd.lhs)
    sql = (
        f"SELECT count(*) FROM (SELECT {lhs} FROM t{_scope_sql(cfd)} "
        f'GROUP BY {lhs} HAVING count(DISTINCT "{cfd.rhs}") > 1)'
    )
    con = duckdb.connect()
    try:
        con.register("t", pdf)
        return int(con.execute(sql).fetchone()[0])
    finally:
        con.close()


def check_repairs(
    tally: Tally,
    cfds: list,
    dirty: dict[str, pd.DataFrame],
    repaired: dict[str, pd.DataFrame],
    spark_groups: dict[str, int],
) -> None:
    """Violating-group counts agree with DuckDB; repaired frames satisfy
    every CFD; repair leaves each CFD's LHS key set unchanged."""
    for cfd in cfds:
        before, after = dirty[cfd.rel], repaired[cfd.rel]
        want = duckdb_violating_groups(before, cfd)
        tally.check(
            spark_groups[cfd.name] == want,
            f"{cfd.name}: violating_groups {spark_groups[cfd.name]} != DuckDB {want}",
        )
        left = duckdb_violating_groups(after, cfd)
        tally.check(left == 0, f"{cfd.name}: {left} violating groups after repair_all")
        keys = list(cfd.lhs)
        same = set(map(tuple, before[keys].drop_duplicates().values.tolist())) == set(
            map(tuple, after[keys].drop_duplicates().values.tolist())
        )
        tally.check(same, f"{cfd.name}: LHS key set changed by repair_all")
