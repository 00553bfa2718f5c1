"""Each correctness check of the benchmark passes on good input and fails
on a corrupted one. Needs no Spark session:

    python3 -m pytest perfbench/test_checks.py -q -p no:cacheprovider
"""
import pathlib
import sys

import pandas as pd
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402
from repro.cfd.cfdtypes import CFD  # noqa: E402
from repro.core.clause import Clause, Const, Literal, Var, eq_lit, repair_lit, sim_lit  # noqa: E402
from repro.md.mdtypes import MD, SimTable  # noqa: E402
from repro.simjoin.similarity import combined_similarity  # noqa: E402

LEFT = ["Dark River (1990)", "Silent Harbor (2001)", "Red Falcon (1977)", "Oz"]
RIGHT = ["Dark Rivers", "Dark River", "Silent Harbour", "The Red Falcon", "Falcon", "Oz"]
MD_T = MD("title", "l", "title", "r", "title", 0.55)


def _reference_table(k=3) -> SimTable:
    by_token = {}
    for r in RIGHT:
        for t in checks.block_tokens(r):
            by_token.setdefault(t, set()).add(r)
    pairs = [
        (lv, rv, s)
        for lv in LEFT
        for rv, s in checks.reference_topk(lv, by_token, k=k, threshold=MD_T.threshold)
    ]
    return SimTable.from_pairs(MD_T, pairs, k=k)


def _sim_tally(table) -> checks.Tally:
    tally = checks.Tally()
    checks.check_sim_table(tally, table, LEFT, RIGHT, k=3, sample=len(LEFT), seed=0)
    return tally


@pytest.mark.parametrize("a,b", [(l, r) for l in LEFT for r in RIGHT] + [("", ""), ("a", "")])
def test_reference_similarity_agrees_with_program(a, b):
    assert abs(checks.reference_similarity(a, b) - combined_similarity(a, b)) <= 1e-9


def test_sim_check_passes_then_fails_on_corruption():
    table = _reference_table()
    assert _sim_tally(table).failed == 0
    lv = "Dark River (1990)"
    assert len(table.left_to_right[lv]) >= 2
    rv, s = table.left_to_right[lv][0]
    table.left_to_right[lv][0] = (rv, s - 1e-6)
    assert _sim_tally(table).failed == 1
    table = _reference_table()
    table.left_to_right[lv].reverse()
    assert _sim_tally(table).failed == 1
    table = _reference_table()
    table.left_to_right[lv].pop()
    assert _sim_tally(table).failed == 1


def _clauses():
    x, t, y = Var("x"), Var("t"), Var("y")
    c = Clause(
        Literal("target", (x,)),
        (
            Literal("movies", (x, t)),
            Literal("omdb", (y,)),
            sim_lit(t, y),
            repair_lit(t, Var("u"), constraint="md:title", group="g"),
            eq_lit(t, t),
        ),
    )
    a, ta, tb = Const("m1"), Const("Dark River"), Const("Dark Rivers")
    merged = Const("Dark River|Dark Rivers")
    g = Clause(
        Literal("target", (a,)),
        (
            Literal("movies", (a, ta)),
            Literal("omdb", (tb,)),
            sim_lit(ta, tb),
            repair_lit(ta, merged, constraint="md:title", group="h"),
        ),
    )
    theta = {x: a, t: ta, y: tb, Var("u"): merged}
    return c, g, theta


def test_witness_check_passes_then_fails_on_corruption():
    c, g, theta = _clauses()
    tally = checks.Tally()
    checks.check_witness(tally, c, g, theta, "ok")
    assert tally.failed == 0
    for bad in (
        {**theta, Var("x"): Const("m2")},  # head does not map onto head(G_e)
        {**theta, Var("y"): Const("Other")},  # relation literal and SIM fail
        {**theta, Var("u"): Const("elsewhere")},  # repair literal not in G_e
    ):
        tally = checks.Tally()
        checks.check_witness(tally, c, g, bad, "bad")
        assert tally.failed == 1
    wrong_constraint = Clause(
        g.head,
        tuple(
            repair_lit(l.args[0], l.args[1], constraint="cfd:key", group="h")
            if l.is_repair else l
            for l in g.body
        ),
    )
    tally = checks.Tally()
    checks.check_witness(tally, c, wrong_constraint, theta, "constraint")
    assert tally.failed == 1


class _FixedEngine:
    def __init__(self, pos, neg):
        self.pos, self.neg = pos, neg

    def covered(self, clause, keys, *, positive):
        return self.pos if positive else self.neg


def test_coverage_order_fails_when_positive_not_negative():
    tally = checks.Tally()
    checks.check_coverage_order(
        tally, None, ["a", "b"], lambda: _FixedEngine([True, False], [True, True]), "ok"
    )
    assert (tally.attempted, tally.failed) == (2, 0)
    checks.check_coverage_order(
        tally, None, ["a", "b"], lambda: _FixedEngine([False, True], [False, False]), "bad"
    )
    assert (tally.attempted, tally.failed) == (4, 1)


def test_spark_dispatch_fails_without_a_job():
    tally = checks.Tally()
    checks.check_spark_dispatch(tally, "spark", 2)
    assert (tally.attempted, tally.failed) == (1, 0)
    checks.check_spark_dispatch(tally, "spark", 0)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_f1_order():
    tally = checks.Tally()
    checks.check_f1_order(tally, {"dlearn": 0.9, "exact": 0.5, "clean": 0.9}, {"exact", "clean"})
    assert (tally.attempted, tally.failed) == (2, 0)
    checks.check_f1_order(tally, {"dlearn": 0.7, "clean": 0.75}, {"clean"})
    assert tally.failed == 1


KEY = CFD("key", "r", ("k",), "v")
PATTERNED = CFD("pat", "r", ("k", "c"), "v", pattern=(("c", "x"),))


def _frames():
    dirty = pd.DataFrame(
        {"k": [1, 1, 2, 3, 3], "c": ["x", "x", "y", "x", "y"], "v": ["a", "b", "c", "d", "d"]}
    )
    repaired = pd.DataFrame({"k": [1, 2, 3, 3], "c": ["x", "y", "x", "y"], "v": ["a", "c", "d", "d"]})
    return {"r": dirty}, {"r": repaired}


def test_duckdb_violating_groups_respects_pattern():
    dirty, _ = _frames()
    assert checks.duckdb_violating_groups(dirty["r"], KEY) == 1
    scoped = pd.DataFrame({"k": [1, 1, 2, 2], "c": ["x", "x", "y", "y"], "v": ["a", "b", "a", "b"]})
    assert checks.duckdb_violating_groups(scoped, PATTERNED) == 1


def test_repair_checks_pass_then_fail_on_corruption():
    dirty, repaired = _frames()
    tally = checks.Tally()
    checks.check_repairs(tally, [KEY], dirty, repaired, {"key": 1})
    assert (tally.attempted, tally.failed) == (3, 0)
    tally = checks.Tally()
    checks.check_repairs(tally, [KEY], dirty, repaired, {"key": 2})  # wrong group count
    assert tally.failed == 1
    tally = checks.Tally()
    checks.check_repairs(tally, [KEY], dirty, dirty, {"key": 1})  # violation left
    assert tally.failed == 1
    lost_key = {"r": repaired["r"][repaired["r"].k != 2]}
    tally = checks.Tally()
    checks.check_repairs(tally, [KEY], dirty, lost_key, {"key": 1})  # LHS key set changed
    assert tally.failed == 1
