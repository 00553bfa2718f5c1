"""Coverage-semantics tests (paper Defs. 3.4/3.6, Examples 3.3/3.5)."""
import pickle

import pytest

from repro.core.bottom_clause import merged_const
from repro.core.clause import (
    Clause,
    Const,
    Literal,
    Var,
    eq_lit,
    expand_repairs,
    repair_lit,
    sim_lit,
)
from repro.core.coverage import (
    GroundExample,
    GroundStore,
    LocalCoverageEngine,
    clause_covers,
)
from tests._movie_fixture import bc, make_db

x, y, z = Var("x"), Var("y"), Var("z")
ux, vx, vy, vz = Var("ux"), Var("vx"), Var("vy"), Var("vz")


def store_of(keys_and_clauses):
    return GroundStore({key: GroundExample.of(key, ge) for key, ge in keys_and_clauses})


def L(pred, *args):
    return Literal(pred, tuple(args))


def C(v):
    return Const(v)


def example_33_clause() -> Clause:
    """H: T(x) ← R(y), x≈y, V(x,vx), V(y,vy), vx=vy,
              S(z), x≈z, V(x,ux), V(z,vz), ux=vz."""
    return Clause(
        L("T", x),
        (
            L("R", y),
            sim_lit(x, y),
            repair_lit(x, vx, constraint="md:1", group="g1"),
            repair_lit(y, vy, constraint="md:1", group="g1"),
            eq_lit(vx, vy),
            L("S", z),
            sim_lit(x, z),
            repair_lit(x, ux, constraint="md:2", group="g2"),
            repair_lit(z, vz, constraint="md:2", group="g2"),
            eq_lit(ux, vz),
        ),
    )


class TestExample33:
    def test_repaired_definitions(self):
        """H has repaired clauses matching H'1 and H'2 of Example 3.3
        (plus the no-repair and both-repair variants)."""
        reps = expand_repairs(example_33_clause())
        # Applying g1 only: T(vx) ← R(vx), S(z) (sim x≈y collapses)
        h1 = [
            r
            for r in reps
            if r.head == L("T", vx)
            and L("R", vx) in r.body
            and L("S", z) in r.body
        ]
        assert h1, [repr(r) for r in reps]
        # Applying g2 only: T(ux) ← R(y), S(ux)
        h2 = [
            r
            for r in reps
            if r.head == L("T", ux)
            and L("R", y) in r.body
            and L("S", ux) in r.body
        ]
        assert h2, [repr(r) for r in reps]


class TestExample35:
    """Database T(a), R(b), S(c) with a≈b, a≈c: H covers T(a) because
    every repaired definition covers it in some stable instance."""

    def _ground(self) -> GroundExample:
        mab, mac = merged_const("a", "b"), merged_const("a", "c")
        ge = Clause(
            L("T", C("a")),
            (
                L("R", C("b")),
                sim_lit(C("a"), C("b")),
                repair_lit(C("a"), mab, constraint="md:1", group="d1"),
                repair_lit(C("b"), mab, constraint="md:1", group="d1"),
                L("S", C("c")),
                sim_lit(C("a"), C("c")),
                repair_lit(C("a"), mac, constraint="md:2", group="d2"),
                repair_lit(C("c"), mac, constraint="md:2", group="d2"),
            ),
        )
        return store_of([("e", ge)]).examples["e"]

    def test_positive_coverage(self):
        h = example_33_clause()
        reps = expand_repairs(h, constraint_prefix="cfd:")
        assert clause_covers(h, reps, self._ground(), positive=True)

    def test_negative_semantics_also_covered_here(self):
        h = example_33_clause()
        reps = expand_repairs(h, constraint_prefix="cfd:")
        assert clause_covers(h, reps, self._ground(), positive=False)

    def test_not_covered_without_sim_facts(self):
        h = example_33_clause()
        reps = expand_repairs(h, constraint_prefix="cfd:")
        ge = Clause(L("T", C("a")), (L("R", C("b")), L("S", C("c"))))
        gx = store_of([("e", ge)]).examples["e"]
        assert not clause_covers(h, reps, gx, positive=True)


class TestCFDSemantics:
    """Positive: every repaired clause covers in some repair (Def 3.4).
    Negative: some repaired clause covers in some repair (Def 3.6)."""

    def _clause_with_cfd(self):
        r1, r2 = Var("r1"), Var("r2")
        return Clause(
            L("T", x),
            (
                L("rates", x, r1),
                L("sym", r1, C("R")),
                L("rates", x, r2),
                repair_lit(r1, r2, constraint="cfd:k", group="c1", alt="a"),
                repair_lit(r2, r1, constraint="cfd:k", group="c1", alt="b"),
            ),
        )

    def _ground_conflicted(self):
        """e's ground clause: rating conflict rt_R vs rt_PG."""
        ge = Clause(
            L("T", C("e")),
            (
                L("rates", C("e"), C("rt_R")),
                L("sym", C("rt_R"), C("R")),
                L("rates", C("e"), C("rt_PG")),
                L("sym", C("rt_PG"), C("PG")),
                repair_lit(C("rt_R"), C("rt_PG"), constraint="cfd:k", group="d1", alt="a"),
                repair_lit(C("rt_PG"), C("rt_R"), constraint="cfd:k", group="d1", alt="b"),
            ),
        )
        return store_of([("e", ge)]).examples["e"]

    def test_negative_covered_via_some_repair(self):
        """In the repair keeping rt_R, the clause matches — a negative
        example with a conflicting rating IS covered (pessimistic)."""
        h = self._clause_with_cfd()
        reps = expand_repairs(h, constraint_prefix="cfd:")
        assert clause_covers(h, reps, self._ground_conflicted(), positive=False)

    def test_clean_match_covers_both_ways(self):
        ge = Clause(
            L("T", C("e")),
            (L("rates", C("e"), C("rt_R")), L("sym", C("rt_R"), C("R"))),
        )
        gx = store_of([("e", ge)]).examples["e"]
        h = Clause(
            L("T", x), (L("rates", x, Var("r")), L("sym", Var("r"), C("R")))
        )
        assert clause_covers(h, [h], gx, positive=True)
        assert clause_covers(h, [h], gx, positive=False)

    def test_wrong_symbol_not_covered(self):
        ge = Clause(
            L("T", C("e")),
            (L("rates", C("e"), C("rt_PG")), L("sym", C("rt_PG"), C("PG"))),
        )
        gx = store_of([("e", ge)]).examples["e"]
        h = Clause(
            L("T", x), (L("rates", x, Var("r")), L("sym", Var("r"), C("R")))
        )
        assert not clause_covers(h, [h], gx, positive=True)
        assert not clause_covers(h, [h], gx, positive=False)


class TestLocalEngine:
    def test_masks_and_cache(self):
        ge1 = Clause(L("T", C("a")), (L("R", C("a"), C("v")),))
        ge2 = Clause(L("T", C("b")), (L("S", C("b")),))
        store = store_of([("a", ge1), ("b", ge2)])
        eng = LocalCoverageEngine(store)
        h = Clause(L("T", x), (L("R", x, y),))
        assert eng.covered(h, ["a", "b"], positive=True) == [True, False]
        # cached second call returns identically
        assert eng.covered(h, ["a", "b"], positive=True) == [True, False]
        assert eng.covered_many([h, h], ["a"], positive=False) == [[True], [True]]

    def test_cap_cut_expansion_is_enumerated(self):
        """A clause whose CFD expansion the cap cuts to one variant is not
        MD-only: its kept variant is tested (no Thm 4.9 shortcut)."""
        r1, r2 = Var("r1"), Var("r2")
        h = Clause(
            L("T", x),
            (
                L("rates", x, r1),
                L("sym", r1, C("R")),
                L("rates", x, r2),
                repair_lit(r1, r2, constraint="cfd:k", group="c1", alt="a"),
                repair_lit(r2, r1, constraint="cfd:k", group="c1", alt="b"),
            ),
        )
        ge = Clause(L("T", C("e")), (L("rates", C("e"), C("rt_R")), L("sym", C("rt_R"), C("R"))))
        store = store_of([("e", ge)])
        for cap in (1, 2, 16):
            for positive in (True, False):
                assert LocalCoverageEngine(store, max_repairs=cap).covered(
                    h, ["e"], positive=positive
                ) == [True]

    def test_one_memo_entry_per_test(self):
        """On the paper's movie database the memo holds one entry per
        (clause, example, semantics), also for equal clauses rebuilt by
        pickling, whose hashes are computed afresh."""
        db = make_db()
        examples = [("Superbad",), ("Zoolander",), ("Orphanage",)]
        store = store_of([(ex, bc(db, ex, ground=True)) for ex in examples])
        clauses = [bc(db, ex) for ex in examples]
        eng = LocalCoverageEngine(store)
        for positive in (True, False):
            want = eng.covered_many(clauses, examples, positive=positive)
            copies = pickle.loads(pickle.dumps(clauses))
            assert eng.covered_many(copies, examples, positive=positive) == want
        assert len(eng._cache) == 2 * len(clauses) * len(examples)
