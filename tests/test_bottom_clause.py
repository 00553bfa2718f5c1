"""Bottom-clause construction tests (paper §4.1, Algorithm 2,
Examples 4.1/4.2)."""
import pytest

from repro.cfd.cfdtypes import CFD
from repro.core.bottom_clause import BottomClauseConfig, build_bottom_clause, merged_const
from repro.core.clause import Const, Var
from repro.core.dbmodel import Attribute as A
from repro.core.dbmodel import LocalDB, Relation, TargetRelation
from repro.core.subsumption import subsumes
from repro.md.mdtypes import MD, SimTable

from tests._movie_fixture import TARGET, bc, make_db, make_sim, repr_digest


class TestExample41:
    """Example 4.1: relevant tuples for highGrossing('Superbad')."""

    def test_relevant_relations_reached(self):
        clause = bc(make_db(), ("Superbad",))
        preds = {l.pred for l in clause.relation_literals()}
        assert preds == {
            "movies",
            "mov2genres",
            "mov2countries",
            "countries",
            "englishMovies",
            "mov2releasedate",
        }

    def test_similarity_literal_created(self):
        clause = bc(make_db(), ("Superbad",))
        sims = [l for l in clause.body if l.pred == "__sim__"]
        assert len(sims) == 1

    def test_md_repair_group(self):
        """Example 4.2: V(x,vx), V(t,vt), vx = vt added per match."""
        clause = bc(make_db(), ("Superbad",))
        reps = [l for l in clause.body if l.is_repair]
        assert len(reps) == 2
        assert all(r.constraint == "md:title" for r in reps)
        assert reps[0].group == reps[1].group
        eqs = [l for l in clause.body if l.pred == "__eq__"]
        assert len(eqs) == 1

    def test_constants_kept_for_const_domains(self):
        clause = bc(make_db(), ("Superbad",))
        genres = [l for l in clause.body if l.pred == "mov2genres"]
        assert Const("comedy") in genres[0].args

    def test_ids_variabilised(self):
        clause = bc(make_db(), ("Superbad",))
        movies = [l for l in clause.body if l.pred == "movies"][0]
        assert all(isinstance(a, Var) for a in movies.args)

    def test_covers_own_example(self):
        """Proposition 4.3: C_e covers e."""
        db = make_db()
        for title in ("Superbad", "Zoolander", "Orphanage"):
            ce = bc(db, (title,))
            ge = bc(db, (title,), ground=True)
            assert subsumes(ce, ge), title


class TestGroundMode:
    def test_ground_clause_is_ground(self):
        ge = bc(make_db(), ("Superbad",), ground=True)
        for lit in ge.body:
            assert all(not isinstance(a, Var) for a in lit.args)

    def test_merged_constant(self):
        ge = bc(make_db(), ("Superbad",), ground=True)
        reps = [l for l in ge.body if l.is_repair]
        m = merged_const("Superbad", "Superbad (2007)")
        assert all(r.args[1] == m for r in reps)

    def test_merged_const_symmetric(self):
        assert merged_const("a", "b") == merged_const("b", "a")


class TestIterationDepth:
    def test_d1_reaches_only_direct_matches(self):
        clause = bc(make_db(), ("Superbad",), d=1)
        preds = {l.pred for l in clause.relation_literals()}
        # d=1: only the similarity match on the example constant fires.
        assert preds == {"movies"}

    def test_d2_reaches_id_satellites(self):
        clause = bc(make_db(), ("Superbad",), d=2)
        preds = {l.pred for l in clause.relation_literals()}
        assert "mov2genres" in preds and "countries" not in preds

    def test_d3_reaches_countries(self):
        clause = bc(make_db(), ("Superbad",), d=3)
        preds = {l.pred for l in clause.relation_literals()}
        assert "countries" in preds

    def test_monotone_in_d(self):
        db = make_db()
        sizes = [len(bc(db, ("Superbad",), d=d).relation_literals()) for d in (1, 2, 3)]
        assert sizes[0] <= sizes[1] <= sizes[2]


class TestSampleSize:
    def test_cap_respected(self):
        db = make_db()
        cfg = BottomClauseConfig(d=3, sample_size=1, k_m=2, seed=0)
        clause = build_bottom_clause(
            db, TARGET, ("Superbad",), mds=[], sim_tables=make_sim(),
            cfds=[], cfg=cfg,
        )
        from collections import Counter
        counts = Counter(l.pred for l in clause.relation_literals())
        assert all(v <= 1 for v in counts.values())


class TestNoMDMode:
    def test_no_cross_reach_without_md(self):
        clause = bc(make_db(), ("Superbad",), mds=[], sim={})
        # 'Superbad' matches nothing exactly -> empty body
        assert clause.relation_literals() == []


class TestKm:
    def test_km_limits_matches(self):
        db = make_db()
        sim = {
            "title": SimTable.from_pairs(
                MD("title", "highGrossing", "title", "movies", "title"),
                [
                    ("Star", "Superbad (2007)", 0.9),
                    ("Star", "Zoolander (2001)", 0.8),
                    ("Star", "Orphanage (2007)", 0.7),
                ],
                k=3,
            )
        }
        c1 = bc(db, ("Star",), k=1, sim={
            "title": SimTable.from_pairs(sim["title"].md, [
                ("Star", "Superbad (2007)", 0.9),
                ("Star", "Zoolander (2001)", 0.8),
                ("Star", "Orphanage (2007)", 0.7),
            ], k=1)})
        c3 = bc(db, ("Star",), k=3, sim=sim)
        n1 = sum(1 for l in c1.body if l.pred == "__sim__")
        n3 = sum(1 for l in c3.body if l.pred == "__sim__")
        assert n1 == 1 and n3 == 3


class TestCFDRepairLiterals:
    def _db_with_violation(self):
        rels = {
            "mov2rating": Relation(
                "mov2rating", (A("id", "mid"), A("rid", "rid"))
            ),
            "movies": Relation("movies", (A("id", "mid"), A("title", "mtitle"))),
        }
        tuples = {
            "mov2rating": [("m1", "r1"), ("m1", "r2")],
            "movies": [("m1", "Superbad (2007)")],
        }
        return LocalDB(rels, tuples)

    def test_violation_produces_alternatives(self):
        db = self._db_with_violation()
        cfd = CFD("rating_key", "mov2rating", ("id",), "rid")
        target = TargetRelation("t", (A("title", "hgtitle"),))
        md = MD("title", "t", "title", "movies", "title")
        sim = {"title": SimTable.from_pairs(md, [("Superbad", "Superbad (2007)", 0.8)], k=2)}
        cfg = BottomClauseConfig(d=3, sample_size=10, k_m=2, seed=0)
        clause = build_bottom_clause(
            db, target, ("Superbad",), mds=[md], sim_tables=sim,
            cfds=[cfd], cfg=cfg,
        )
        cfd_reps = [l for l in clause.body if l.is_repair and l.constraint == "cfd:rating_key"]
        assert len(cfd_reps) == 2
        assert {r.alt for r in cfd_reps} == {"a", "b"}
        assert cfd_reps[0].group == cfd_reps[1].group

    def test_no_literals_without_flag(self):
        db = self._db_with_violation()
        target = TargetRelation("t", (A("title", "hgtitle"),))
        md = MD("title", "t", "title", "movies", "title")
        sim = {"title": SimTable.from_pairs(md, [("Superbad", "Superbad (2007)", 0.8)], k=2)}
        cfg = BottomClauseConfig(d=3, sample_size=10, k_m=2, seed=0)
        clause = build_bottom_clause(
            db, target, ("Superbad",), mds=[md], sim_tables=sim,
            cfds=[], cfg=cfg,
        )
        assert not [l for l in clause.body if l.is_repair and "cfd" in l.constraint]


class TestDeterminism:
    def test_same_seed_same_clause(self):
        db = make_db()
        assert bc(db, ("Superbad",), seed=3) == bc(db, ("Superbad",), seed=3)


class TestPinnedOutput:
    """Algorithm 2's exact output on an extended Table 2 database.

    The digest was recorded from the original implementation. It pins
    every sampling draw, candidate order, MD direction order and
    ``v{n}``/``u{n}`` name, so a rewrite that changes any of these
    bottom clauses fails here. The database adds what the Table 2 fixture lacks: more
    candidates per relation than ``sample_size`` 1-3, a second title per
    similar movie, a self-MD (movie titles similar to movie titles, so one
    value is searched in both directions), a non-searchable attribute,
    two CFD violations and a domain merge."""

    DIGEST = "6e3317e941ab997565cdc0ce1b20ceaa938d1202179fb45082f045cc4b4df621"

    def _cases(self):
        db = LocalDB(dict(RELS_EXT), {k: list(v) for k, v in TUPLES_EXT.items()})
        title = MD("title", "highGrossing", "title", "movies", "title")
        dup = MD("dup", "movies", "title", "movies", "title")
        cfds = [
            CFD("country_key", "mov2countries", ("id",), "cid"),
            CFD("month_key", "mov2releasedate", ("id",), "month"),
        ]
        variants = [
            ([title], [], {}),
            ([title, dup], cfds, {}),
            ([dup, title], cfds, {"hgtitle": "mtitle"}),
            ([], cfds, {"hgtitle": "mtitle"}),
        ]
        sim = {
            "title": SimTable.from_pairs(title, TITLE_PAIRS, k=3),
            "dup": SimTable.from_pairs(dup, DUP_PAIRS, k=3),
        }
        examples = [
            ("Superbad",), ("Zoolander",), ("Orphanage",), ("Superbad (2007)",), ("Superbad 2",)
        ]
        for mds, cfd_list, dmap in variants:
            for ex in examples:
                for d in (1, 2, 3, 4):
                    for k_m in (1, 2, 3):
                        for size in (1, 2, 3, 10):
                            for seed in (0, 1, 2):
                                cfg = BottomClauseConfig(
                                    d=d, sample_size=size, k_m=k_m, seed=seed,
                                    domain_map=dmap,
                                )
                                for ground in (False, True):
                                    yield build_bottom_clause(
                                        db, TARGET, ex, mds=mds, sim_tables=sim,
                                        cfds=cfd_list, cfg=cfg, ground=ground,
                                    )

    def test_sweep_digest(self):
        assert repr_digest(self._cases()) == self.DIGEST


RELS_EXT = {
    "movies": Relation("movies", (A("id", "mid"), A("title", "mtitle"))),
    "mov2genres": Relation("mov2genres", (A("id", "mid"), A("genre", "genre", "const"))),
    "mov2countries": Relation("mov2countries", (A("id", "mid"), A("cid", "cid"))),
    "countries": Relation("countries", (A("cid", "cid"), A("name", "country", "const"))),
    "englishMovies": Relation("englishMovies", (A("id", "mid"),)),
    "mov2releasedate": Relation(
        "mov2releasedate", (A("id", "mid"), A("month", "month", "const"))
    ),
    "mov2year": Relation("mov2year", (A("id", "mid"), A("year", "year", search=False))),
}

TUPLES_EXT = {
    "movies": [
        ("m1", "Superbad (2007)"),
        ("m2", "Zoolander (2001)"),
        ("m3", "Orphanage (2007)"),
        ("m4", "Superbad (2019)"),
        ("m5", "Superbad 2"),
    ],
    "mov2genres": [
        ("m1", "comedy"), ("m1", "teen"), ("m2", "comedy"), ("m3", "drama"),
        ("m4", "comedy"), ("m4", "teen"), ("m5", "comedy"),
    ],
    "mov2countries": [
        ("m1", "c1"), ("m1", "c2"), ("m2", "c1"), ("m3", "c2"), ("m4", "c1"), ("m5", "c3"),
    ],
    "countries": [("c1", "USA"), ("c2", "Spain"), ("c3", "Canada"), ("c1", "America")],
    "englishMovies": [("m1",), ("m2",), ("m4",), ("m5",)],
    "mov2releasedate": [
        ("m1", "August"), ("m1", "May"), ("m2", "September"), ("m3", "January"),
        ("m4", "June"),
    ],
    "mov2year": [("m1", 2007), ("m2", 2001), ("m3", 2007), ("m4", 2019), ("m5", 2019)],
}

TITLE_PAIRS = [
    ("Superbad", "Superbad (2007)", 0.8),
    ("Superbad", "Superbad (2019)", 0.75),
    ("Superbad", "Superbad 2", 0.7),
    ("Zoolander", "Zoolander (2001)", 0.8),
    ("Orphanage", "Orphanage (2007)", 0.8),
]

# Self-MD pairs: "Superbad (2007)" has a match in each direction.
DUP_PAIRS = [
    ("Superbad (2007)", "Superbad (2019)", 0.7),
    ("Superbad 2", "Superbad (2007)", 0.6),
    ("Superbad 2", "Superbad (2019)", 0.6),
]
