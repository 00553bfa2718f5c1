"""The compiled θ-subsumption core against the frozen reference solver.

``tests/_reference_solver.py`` holds the dict-based solver and ARMG the
core replaced. On every input the core must return the same θ (or None)
and charge the same work — so every budget cutoff falls at the same
place — and ARMG must return the identical clause. Inputs are random
small clauses (relation, SIM, EQ and REPAIR literals, repeated variables,
constants, non-ground D as in Plotkin reduction, tight budgets) and the
(C, G_e) pairs and ARMG inputs a learner produces on the paper's Table 2
movie database.
"""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfd.cfdtypes import CFD
from repro.core.clause import (
    Clause,
    Const,
    Literal,
    Var,
    eq_lit,
    expand_repairs,
    head_connected,
    remove_redundant_literals,
    repair_lit,
    sim_lit,
)
from repro.core.dbmodel import LocalDB
from repro.core.generalize import armg
from repro.core.subsumption import (
    CompiledClause,
    Pattern,
    _solve,
    find_substitution,
    reduce_clause,
)
from tests import _reference_solver as ref
from tests._movie_fixture import RELS, TUPLES, bc, make_db

VARS = [Var(f"x{i}") for i in range(5)]
CONSTS = [Const(v) for v in "abc"]
GROUND = CONSTS + [Const("d")]
BUDGETS = [0, 1, 2, 3, 5, 8, 13, 30, 100, 60_000]


def literals(term):
    """Relation (with an arity clash on ``r``), SIM, EQ and REPAIR literals."""
    rel = st.one_of(
        st.tuples(term, term).map(lambda a: Literal("r", a)),
        st.tuples(term).map(lambda a: Literal("s", a)),
        st.tuples(term, term, term).map(lambda a: Literal("r", a)),
    )
    repair = st.builds(
        lambda x, v, cons, grp, alt: repair_lit(x, v, constraint=cons, group=grp, alt=alt),
        term,
        term,
        st.sampled_from(["md:a", "cfd:b"]),
        st.sampled_from(["g1", "g2"]),
        st.sampled_from(["", "a"]),
    )
    builtin = st.builds(
        lambda f, x, y: f(x, y), st.sampled_from([sim_lit, eq_lit]), term, term
    )
    return st.one_of(rel, rel, repair, builtin)


def clauses(term, max_body):
    return st.builds(
        lambda h, body: Clause(Literal("t", (h,)), tuple(body)),
        term,
        st.lists(literals(term), max_size=max_body),
    )


pattern_term = st.sampled_from(VARS + CONSTS)
ground_term = st.sampled_from(GROUND)


def assert_same_search(c, d, max_work):
    want = ref.find_substitution(c, d, max_work=max_work)
    assert _solve(Pattern(c), CompiledClause(d), max_work) == want
    assert find_substitution(c, d, max_work=max_work) == want[0]
    return want


def assert_same_armg(c, g, max_width=64):
    assert armg(c, g, max_width=max_width) == ref.armg(c, g, max_width=max_width)
    assert armg(c, CompiledClause(g), max_width=max_width) == ref.armg(c, g, max_width=max_width)


def _reference_reduce(clause, pairs, max_work=20_000):
    """``reduce_clause`` on the reference solver, recording its calls."""
    body = list(clause.body)
    changed = True
    while changed:
        changed = False
        for i in range(len(body) - 1, -1, -1):
            cand = Clause(clause.head, tuple(body[:i] + body[i + 1 :]))
            full = Clause(clause.head, tuple(body))
            pairs.append((full, cand, max_work))
            if ref.find_substitution(full, cand, max_work=max_work)[0] is not None:
                body = list(cand.body)
                changed = True
    return Clause(clause.head, tuple(body))


SETTINGS = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestRandomClauses:
    @SETTINGS
    @given(clauses(pattern_term, 6), clauses(ground_term, 10), st.sampled_from(BUDGETS))
    def test_ground_d(self, c, d, max_work):
        assert_same_search(c, d, max_work)

    @SETTINGS
    @given(clauses(pattern_term, 6), clauses(pattern_term, 8), st.sampled_from(BUDGETS))
    def test_non_ground_d(self, c, d, max_work):
        # D's variables are frozen terms; they may share names with C's.
        assert_same_search(c, d, max_work)

    @SETTINGS
    @given(clauses(pattern_term, 8), st.data(), st.sampled_from(BUDGETS))
    def test_reduction_candidates(self, c, data, max_work):
        """``reduce_clause`` asks whether C subsumes C minus one literal."""
        if not c.body:
            return
        i = data.draw(st.integers(0, len(c.body) - 1))
        cand = Clause(c.head, c.body[:i] + c.body[i + 1 :])
        assert_same_search(c, cand, max_work)

    @SETTINGS
    @given(clauses(pattern_term, 6), clauses(pattern_term, 8), st.data(), st.sampled_from(BUDGETS))
    def test_compiled_without(self, c, d, data, max_work):
        """Dropping literals from a compiled D, one after another as
        ``reduce_clause`` does, searches like compiling what is left."""
        compiled, body = CompiledClause(d), list(d.body)
        for _ in range(data.draw(st.integers(0, min(3, len(body))))):
            i = data.draw(st.integers(0, len(body) - 1))
            del body[i]
            compiled = compiled.without(i)
            assert compiled.clause == Clause(d.head, tuple(body))
            want = _solve(Pattern(c), CompiledClause(compiled.clause), max_work)
            assert _solve(Pattern(c), compiled, max_work) == want

    @SETTINGS
    @given(clauses(pattern_term, 8), st.sampled_from(BUDGETS))
    def test_reduce_clause(self, c, max_work):
        assert reduce_clause(c, max_work=max_work) == _reference_reduce(c, [], max_work)

    @SETTINGS
    @given(clauses(pattern_term, 8), clauses(ground_term, 10), st.sampled_from([1, 2, 3, 64]))
    def test_armg(self, c, g, max_width):
        assert_same_armg(c, g, max_width)


class TestBudgetCutoffs:
    def test_cutoff_at_same_work(self):
        body = tuple(Literal("r", (Var(f"u{i}"), Var(f"u{i + 1}"))) for i in range(6))
        facts = tuple(
            Literal("r", (Const(f"n{i}"), Const(f"n{j}"))) for i in range(4) for j in range(4)
        )
        c = Clause(Literal("t", (Var("u0"),)), body + (Literal("q", (Var("u6"),)),))
        d = Clause(Literal("t", (Const("n0"),)), facts + (Literal("q", (Const("n3"),)),))
        _, full = assert_same_search(c, d, 60_000)
        found = [assert_same_search(c, d, w)[0] is not None for w in range(0, full + 2)]
        assert not found[0] and found[-1]


class TestCarriedCandidates:
    """Each literal's candidate list is carried down the search and
    cleared when one of its slots is bound. In these clauses the first
    bindings of a literal fail deeper down, so a list left over from a
    sibling binding, or one not restored on backtracking, changes the
    θ or the work; every budget up to the full search's work is tried."""

    @staticmethod
    def assert_every_budget(c, d):
        theta, full = assert_same_search(c, d, 60_000)
        assert theta is not None
        for w in range(full + 2):
            assert_same_search(c, d, w)

    def test_chain_with_failing_early_branches(self):
        u = [Var(f"u{i}") for i in range(4)]
        c = Clause(
            Literal("t", (u[0],)),
            tuple(Literal("r", (u[i], u[i + 1])) for i in range(3)) + (Literal("q", (u[3],)),),
        )
        edges = (
            "n0 a1, n0 a2, n0 a3, a1 b1, a1 b2, a2 b3, a2 b4, a3 b5, a3 b6,"
            " b1 c1, b3 c2, b4 c3, b6 c4, b6 c5"
        )
        d = Clause(
            Literal("t", (Const("n0"),)),
            tuple(Literal("r", tuple(map(Const, e.split()))) for e in edges.split(","))
            + tuple(Literal("q", (Const(v),)) for v in ("c5", "d1", "d2")),
        )
        self.assert_every_budget(c, d)

    def test_star_with_failing_early_branches(self):
        x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
        c = Clause(
            Literal("t", (x,)),
            (
                Literal("r", (x, y)),
                Literal("s", (y, z)),
                Literal("p", (z, w)),
                Literal("q", (w,)),
            ),
        )
        k = Const
        facts = [Literal("r", (k("e"), k(f"y{i}"))) for i in range(3)]
        facts += [Literal("s", (k(f"y{i}"), k(f"z{j}"))) for i in range(3) for j in range(i + 1)]
        facts += [Literal("p", (k(a), k(b))) for a, b in [("z2", "w1"), ("z0", "w0"), ("z1", "w2")]]
        facts += [Literal("q", (k("w1"),)), Literal("q", (k("w3"),))]
        self.assert_every_budget(c, Clause(Literal("t", (k("e"),)), tuple(facts)))


class TestArmgCases:
    def test_eq_needs_equal_images(self):
        """ARMG keeps an EQ literal only for equal images; a SIM fact of G
        relating them does not count."""
        x, y, z = Var("x"), Var("y"), Var("z")
        a, b, c = Const("a"), Const("b"), Const("c")
        g = Clause(
            Literal("t", (a,)),
            (Literal("r", (a, b)), Literal("s", (c,)), sim_lit(b, c)),
        )
        for restrict in (eq_lit, sim_lit):
            cl = Clause(
                Literal("t", (x,)),
                (Literal("r", (x, y)), Literal("s", (z,)), restrict(y, z)),
            )
            assert_same_armg(cl, g)
            assert (restrict(y, z) in armg(cl, g).body) == (restrict is sim_lit)

    def test_frontier_truncated_at_width(self):
        """The frontier is cut at exactly ``max_width`` substitutions, even
        when the cut falls inside one substitution's extensions."""
        x, y, z = Var("x"), Var("y"), Var("z")
        c = Clause(
            Literal("t", (x,)),
            (Literal("p", (x, y)), Literal("q", (y, z)), Literal("s", (z,))),
        )
        a, c1, c2, d1, d2, d3 = (Const(v) for v in ["a", "c1", "c2", "d1", "d2", "d3"])
        g = Clause(
            Literal("t", (a,)),
            (
                Literal("p", (a, c1)),
                Literal("p", (a, c2)),
                Literal("q", (c1, d1)),
                Literal("q", (c2, d2)),
                Literal("q", (c2, d3)),
                Literal("s", (d3,)),
            ),
        )
        for width in (1, 2, 3, 64):
            assert_same_armg(c, g, width)
        assert Literal("s", (z,)) not in armg(c, g, max_width=2).body
        assert Literal("s", (z,)) in armg(c, g, max_width=3).body


# -- pairs from the paper's Table 2 movie database -----------------------------

EXAMPLES = [("Superbad",), ("Zoolander",), ("Orphanage",)]
CFD_COUNTRY = CFD("country_key", "mov2countries", ("id",), "cid")


def _db(with_violation):
    if not with_violation:
        return make_db()
    tuples = {rel: list(rows) for rel, rows in TUPLES.items()}
    tuples["mov2countries"].append(("m1", "c2"))  # Superbad gets a second country
    return LocalDB(dict(RELS), tuples)


def _recorded():
    """(C, D, budget) solver calls and (C, G) ARMG inputs of a small
    learner run: reduction, ARMG against every other example, and
    coverage of the candidates against every ground clause and repair."""
    calls, armg_inputs, reductions = [], [], []
    for d, k, cfds in [(2, 1, []), (3, 2, []), (3, 2, [CFD_COUNTRY])]:
        db = _db(bool(cfds))
        kw = dict(d=d, k=k, cfds=cfds)
        grounds = {ex: bc(db, ex, ground=True, **kw) for ex in EXAMPLES}
        repairs = {
            ex: expand_repairs(g, max_repairs=32, constraint_prefix="cfd:")
            for ex, g in grounds.items()
        }
        candidates = []
        for ex in EXAMPLES:
            raw = head_connected(bc(db, ex, **kw))
            reductions.append((raw, _reference_reduce(raw, calls)))
            start = remove_redundant_literals(raw)
            cur = _reference_reduce(start, calls)
            reductions.append((start, cur))
            candidates.append(cur)
            for other in EXAMPLES:
                if other != ex:
                    armg_inputs.append((cur, grounds[other]))
                    g = ref.armg(cur, grounds[other])
                    if g is not None:
                        candidates.append(g)
        for cand in candidates:
            for reps in [[cand], expand_repairs(cand, max_repairs=16, constraint_prefix="cfd:")]:
                for cr in reps:
                    for ex in EXAMPLES:
                        for gr in [grounds[ex], *repairs[ex]]:
                            calls.append((cr, gr, 60_000))
    return calls, armg_inputs, reductions


@pytest.fixture(scope="module")
def recorded():
    return _recorded()


class TestMovieFixture:
    def test_recorded_calls(self, recorded):
        calls, _, _ = recorded
        assert len(calls) > 200
        found = sum(assert_same_search(c, d, w)[0] is not None for c, d, w in calls)
        assert 0 < found < len(calls)

    def test_recorded_calls_under_tight_budgets(self, recorded):
        calls, _, _ = recorded
        cut = 0
        for c, d, w in calls[::7]:
            theta, full = ref.find_substitution(c, d, max_work=w)
            for budget in sorted({0, 1, full // 3, full // 2, full - 1}):
                got = assert_same_search(c, d, max(0, budget))
                cut += theta is not None and got[0] is None
        assert cut > 0  # some budgets ran out where the full search succeeds

    def test_armg_identical(self, recorded):
        _, armg_inputs, _ = recorded
        assert armg_inputs
        for c, g in armg_inputs:
            for width in (2, 64):
                assert_same_armg(c, g, width)

    def test_reduce_identical(self, recorded):
        _, _, reductions = recorded
        assert any(len(out.body) < len(start.body) for start, out in reductions)
        for start, out in reductions:
            assert reduce_clause(start) == out

    def test_reduce_identical_under_tight_budgets(self, recorded):
        """Budgets of 0, 1, a third and a half of the most work one of the
        reference reduction's tests takes."""
        _, _, reductions = recorded
        cut = 0
        for start, out in reductions:
            tests = []
            _reference_reduce(start, tests)
            most = max(ref.find_substitution(c, d, max_work=w)[1] for c, d, w in tests)
            for budget in sorted({0, 1, most // 3, most // 2}):
                want = _reference_reduce(start, [], budget)
                assert reduce_clause(start, max_work=budget) == want
                cut += len(want.body) > len(out.body)
        assert cut > 0  # some budgets ran out where the full test drops a literal
