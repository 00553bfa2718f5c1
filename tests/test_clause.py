"""Unit tests for the clause calculus (paper §2.1, §3.2)."""
import pickle

import pytest

from repro.core.clause import (
    EQ,
    REPAIR,
    SIM,
    Clause,
    Const,
    Literal,
    Var,
    apply_repair_literals,
    eq_lit,
    expand_repairs,
    head_connected,
    remove_redundant_literals,
    repair_lit,
    sim_lit,
)

x, y, z, t, u1, u2 = (Var(n) for n in "xyztab")


def lit(pred, *args):
    return Literal(pred, tuple(args))


class TestTerms:
    def test_var_equality(self):
        assert Var("x") == Var("x") and Var("x") != Var("y")

    def test_const_equality(self):
        assert Const(1) == Const(1) and Const(1) != Const("1")

    def test_literal_substitute(self):
        l = lit("r", x, Const("a"))
        assert l.substitute({x: Const("b")}) == lit("r", Const("b"), Const("a"))

    def test_variables(self):
        assert lit("r", x, Const("a"), y).variables() == {x, y}

    def test_builtin_flags(self):
        assert sim_lit(x, y).is_builtin and not sim_lit(x, y).is_repair
        assert repair_lit(x, y, constraint="md:m", group="g").is_repair


class TestClauseHash:
    def test_hash_cached_and_kept_out_of_pickles(self):
        """A clause hashes as its (head, body) tuple, once; a pickled
        clause carries no hash, since string hashes differ per process."""
        c = Clause(lit("T", x), (lit("R", x, y), sim_lit(y, Const("a"))))
        assert hash(c) == hash((c.head, c.body))
        assert "_hash" in vars(c)
        restored = pickle.loads(pickle.dumps(c))
        assert "_hash" not in vars(restored)
        assert restored == c and hash(restored) == hash(c)

    def test_equal_clauses_one_key(self):
        c = Clause(lit("T", x), (lit("R", x, y),))
        d = Clause(lit("T", x), (lit("R", x, y),))
        hash(c)
        assert {c: 1}[d] == 1 and len({c, d}) == 1


class TestHeadConnected:
    def test_keeps_connected_chain(self):
        c = Clause(lit("T", x), (lit("R", x, y), lit("S", y, z)))
        assert head_connected(c).body == c.body

    def test_drops_disconnected(self):
        c = Clause(lit("T", x), (lit("R", x, y), lit("S", z, t)))
        assert head_connected(c).body == (lit("R", x, y),)

    def test_sim_literal_bridges(self):
        # S is only reachable through the similarity literal x ≈ z.
        c = Clause(lit("T", x), (sim_lit(x, z), lit("S", z, t)))
        out = head_connected(c)
        assert lit("S", z, t) in out.body and sim_lit(x, z) in out.body

    def test_md_repair_dropped_with_its_sim(self):
        # If the sim literal's far side is unanchored, sim + repairs go.
        r1 = repair_lit(x, u1, constraint="md:m", group="g")
        c = Clause(lit("T", x), (sim_lit(x, z), r1))
        out = head_connected(c)
        assert out.body == ()

    def test_md_repair_kept_with_anchored_sim(self):
        r1 = repair_lit(x, u1, constraint="md:m", group="g")
        r2 = repair_lit(z, u2, constraint="md:m", group="g")
        c = Clause(
            lit("T", x),
            (lit("S", z, t), sim_lit(x, z), r1, r2, eq_lit(u1, u2)),
        )
        out = head_connected(c)
        assert r1 in out.body and r2 in out.body and eq_lit(u1, u2) in out.body

    def test_ground_literal_kept(self):
        c = Clause(lit("T", x), (Literal("R", (Const("a"),)),))
        assert head_connected(c).body == c.body


class TestExpandRepairs:
    def test_no_repairs_identity(self):
        c = Clause(lit("T", x), (lit("R", x, y),))
        assert expand_repairs(c) == [c]

    def test_md_group_two_variants(self):
        """Example 3.2: applying the MD group unifies x and t."""
        c = Clause(
            lit("T", x),
            (
                lit("movies", y, t),
                lit("highBudget", x),
                sim_lit(x, t),
                repair_lit(x, u1, constraint="md:m", group="g"),
                repair_lit(t, u2, constraint="md:m", group="g"),
                eq_lit(u1, u2),
            ),
        )
        reps = expand_repairs(c)
        assert len(reps) == 2
        applied = [r for r in reps if r.head != lit("T", x)]
        assert len(applied) == 1
        ap = applied[0]
        # head variable and movie title unified to one replacement var
        assert ap.head.args[0] == ap.body[0].args[1]

    def test_cfd_alternatives_mutually_exclusive(self):
        c = Clause(
            lit("T", x),
            (
                lit("R", x, z),
                lit("R", x, t),
                repair_lit(z, t, constraint="cfd:f", group="g", alt="a"),
                repair_lit(t, z, constraint="cfd:f", group="g", alt="b"),
            ),
        )
        reps = expand_repairs(c)
        # skip, z:=t, t:=z — but the two applications are isomorphic sets
        bodies = {r.body for r in reps}
        assert len(reps) == 3
        applied = [r for r in reps if len(r.body) == 1]
        assert len(applied) == 2  # both unifications collapse R literals

    def test_expansion_cap(self):
        body = []
        for i in range(10):
            v = Var(f"v{i}")
            body.append(lit("R", x, v))
            body.append(
                repair_lit(v, Var(f"w{i}"), constraint="md:m", group=f"g{i}")
            )
        c = Clause(lit("T", x), tuple(body))
        reps = expand_repairs(c, max_repairs=16)
        assert 1 <= len(reps) <= 16

    def test_constraint_prefix_filter(self):
        c = Clause(
            lit("T", x),
            (
                lit("R", x, z),
                lit("R", x, t),
                sim_lit(x, z),
                repair_lit(x, u1, constraint="md:m", group="gm"),
                repair_lit(z, u2, constraint="md:m", group="gm"),
                repair_lit(z, t, constraint="cfd:f", group="gc", alt="a"),
                repair_lit(t, z, constraint="cfd:f", group="gc", alt="b"),
            ),
        )
        reps = expand_repairs(c, constraint_prefix="cfd:")
        # MD repair literals must survive in every variant
        for r in reps:
            assert any(
                l.is_repair and l.constraint == "md:m" for l in r.body
            )
            assert not any(
                l.is_repair and l.constraint == "cfd:f" for l in r.body
            )

    def test_ground_constant_repair(self):
        c = Clause(
            Literal("T", (Const("e"),)),
            (
                Literal("R", (Const("e"), Const("r1"))),
                Literal("R", (Const("e"), Const("r2"))),
                repair_lit(Const("r1"), Const("r2"), constraint="cfd:f", group="g", alt="a"),
                repair_lit(Const("r2"), Const("r1"), constraint="cfd:f", group="g", alt="b"),
            ),
        )
        reps = expand_repairs(c)
        applied = [r for r in reps if len(r.body) == 1]
        assert len(applied) == 2
        vals = {r.body[0].args[1] for r in applied}
        assert vals == {Const("r1"), Const("r2")}


class TestApplyRepairLiterals:
    def test_strip_only_selected_groups(self):
        r_md = repair_lit(x, u1, constraint="md:m", group="gm")
        r_cfd = repair_lit(z, t, constraint="cfd:f", group="gc", alt="a")
        c = Clause(lit("T", x), (lit("R", x, z), lit("R", x, t), sim_lit(x, z), r_md, r_cfd))
        out = apply_repair_literals(c, [r_cfd], strip_groups={"gc"})
        assert r_md in out.body
        assert not any(l.is_repair and l.group == "gc" for l in out.body)
        # z replaced by t everywhere
        assert lit("R", x, t) in out.body and lit("R", x, z) not in out.body


class TestRemoveRedundant:
    def test_folds_private_duplicate(self):
        # R(x, y2) with y2 private folds onto R(x, y1).
        y1, y2 = Var("y1"), Var("y2")
        c = Clause(lit("T", x), (lit("R", x, y1), lit("R", x, y2), lit("S", y1)))
        out = remove_redundant_literals(c)
        assert lit("R", x, y2) not in out.body
        assert lit("R", x, y1) in out.body

    def test_keeps_shared_variable_literal(self):
        y1, y2 = Var("y1"), Var("y2")
        c = Clause(
            lit("T", x),
            (lit("R", x, y1), lit("R", x, y2), lit("S", y1), lit("S", y2)),
        )
        out = remove_redundant_literals(c)
        # y2 occurs twice -> not private -> kept
        assert lit("R", x, y2) in out.body

    def test_constant_mismatch_not_folded(self):
        c = Clause(
            lit("T", x),
            (lit("R", x, Const("a")), lit("R", x, Const("b"))),
        )
        out = remove_redundant_literals(c)
        assert len(out.body) == 2
