"""The paper's Table 2 example database as a reusable fixture."""
import hashlib

from repro.core.bottom_clause import BottomClauseConfig, build_bottom_clause
from repro.core.dbmodel import Attribute as A
from repro.core.dbmodel import LocalDB, Relation, TargetRelation
from repro.md.mdtypes import MD, SimTable

RELS = {
    "movies": Relation("movies", (A("id", "mid"), A("title", "mtitle"))),
    "mov2genres": Relation(
        "mov2genres", (A("id", "mid"), A("genre", "genre", "const"))
    ),
    "mov2countries": Relation(
        "mov2countries", (A("id", "mid"), A("cid", "cid"))
    ),
    "countries": Relation(
        "countries", (A("cid", "cid"), A("name", "country", "const"))
    ),
    "englishMovies": Relation("englishMovies", (A("id", "mid"),)),
    "mov2releasedate": Relation(
        "mov2releasedate", (A("id", "mid"), A("month", "month", "const"))
    ),
}

TUPLES = {
    "movies": [
        ("m1", "Superbad (2007)"),
        ("m2", "Zoolander (2001)"),
        ("m3", "Orphanage (2007)"),
    ],
    "mov2genres": [("m1", "comedy"), ("m2", "comedy"), ("m3", "drama")],
    "mov2countries": [("m1", "c1"), ("m2", "c1"), ("m3", "c2")],
    "countries": [("c1", "USA"), ("c2", "Spain")],
    "englishMovies": [("m1",), ("m2",)],
    "mov2releasedate": [("m1", "August"), ("m2", "September"), ("m3", "January")],
}

TARGET = TargetRelation("highGrossing", (A("title", "hgtitle"),))

MD_TITLE = MD("title", "highGrossing", "title", "movies", "title")

SIM_PAIRS = [
    ("Superbad", "Superbad (2007)", 0.8),
    ("Zoolander", "Zoolander (2001)", 0.8),
    ("Orphanage", "Orphanage (2007)", 0.8),
]


def make_db() -> LocalDB:
    return LocalDB(dict(RELS), {k: list(v) for k, v in TUPLES.items()})


def make_sim(k: int = 2) -> dict[str, SimTable]:
    return {"title": SimTable.from_pairs(MD_TITLE, list(SIM_PAIRS), k=k)}


def bc(db, example, *, ground=False, d=3, k=2, mds=None, sim=None, cfds=None, seed=0):
    cfg = BottomClauseConfig(d=d, sample_size=10, k_m=k, seed=seed)
    return build_bottom_clause(
        db,
        TARGET,
        example,
        mds=[MD_TITLE] if mds is None else mds,
        sim_tables=make_sim(k) if sim is None else sim,
        cfds=cfds or [],
        cfg=cfg,
        ground=ground,
    )


def repr_digest(clauses) -> str:
    """sha256 of the clauses' ``repr``s, one per line: pins exact output."""
    return hashlib.sha256("\n".join(map(repr, clauses)).encode()).hexdigest()
