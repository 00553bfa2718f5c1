"""Synthetic IMDB + OMDB corpus (paper §6.1.1, target
``dramaRestrictedMovies(imdbId)``).

Ground truth: ``n_movies`` movies with canonical titles, genres, an
MPAA rating, countries, cast and writers. The IMDB side knows ids,
titles (formatted ``"<canonical> (<year>)"``), genres, countries, cast
and writers — but **not** ratings; the OMDB side knows titles (dirty),
genres, cast, writers and ratings — but not imdb ids. A movie is in the
target iff it has genre *drama* and rating *R*; reaching the rating
from an imdb id requires the title similarity join and is exactly four
hops away (id → title →≈ omdb title → omdb id → rating id → symbol),
matching the paper's Table 7 threshold at d = 4.

Dirtiness knobs (DESIGN.md §5): ``exact_frac`` titles byte-equal across
sides, ``ambig_frac`` movies arranged as remake pairs sharing a
canonical title (top-1 match unreliable, true match within top-2).

CFDs (§6.1.2 reports 4 for this corpus): key-style dependencies on the
rating/genre chains; Table 5 injects violations into
``omdb_mov2rating`` (rating id flipped), the class-bearing relation.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from pyspark.sql import SparkSession

from repro.cfd.cfdtypes import CFD
from repro.core.dbmodel import Attribute as A
from repro.core.dbmodel import Relation, TargetRelation
from repro.datasets.base import DirtyDataset, build_frames
from repro.datasets.dirty import perturb_string, person_names, unique_phrases
from repro.md.mdtypes import MD

GENRES = ["drama", "comedy", "action", "horror", "thriller", "romance"]
RATINGS = ["G", "PG", "PG-13", "R", "NC-17"]
COUNTRIES = ["USA", "UK", "France", "Spain", "Japan", "Canada", "Germany"]

RELATIONS: dict[str, Relation] = {
    "imdb_movies": Relation(
        "imdb_movies", (A("imdbid", "imdb_id"), A("title", "imdb_title"))
    ),
    "imdb_mov2genres": Relation(
        "imdb_mov2genres", (A("imdbid", "imdb_id"), A("genre", "genre", "const"))
    ),
    "imdb_mov2countries": Relation(
        "imdb_mov2countries",
        (A("imdbid", "imdb_id"), A("country", "country", "const")),
    ),
    "imdb_mov2cast": Relation(
        "imdb_mov2cast", (A("imdbid", "imdb_id"), A("actor", "imdb_actor"))
    ),
    "imdb_mov2writers": Relation(
        "imdb_mov2writers", (A("imdbid", "imdb_id"), A("writer", "imdb_writer"))
    ),
    "omdb_movies": Relation(
        "omdb_movies", (A("omdbid", "omdb_id"), A("title", "omdb_title"))
    ),
    "omdb_mov2genres": Relation(
        "omdb_mov2genres", (A("omdbid", "omdb_id"), A("genre", "genre", "const"))
    ),
    "omdb_mov2cast": Relation(
        "omdb_mov2cast", (A("omdbid", "omdb_id"), A("actor", "omdb_actor"))
    ),
    "omdb_mov2writers": Relation(
        "omdb_mov2writers", (A("omdbid", "omdb_id"), A("writer", "omdb_writer"))
    ),
    "omdb_mov2rating": Relation(
        "omdb_mov2rating", (A("omdbid", "omdb_id"), A("ratingid", "rating_id"))
    ),
    "ratings": Relation(
        "ratings", (A("ratingid", "rating_id"), A("symbol", "rating", "const"))
    ),
}

TARGET = TargetRelation("dramaRestrictedMovies", (A("imdbid", "imdb_id"),))

MD_TITLE = MD("title", "imdb_movies", "title", "omdb_movies", "title", 0.65)
MD_CAST = MD("cast", "imdb_mov2cast", "actor", "omdb_mov2cast", "actor", 0.70)
MD_WRITER = MD(
    "writer", "imdb_mov2writers", "writer", "omdb_mov2writers", "writer", 0.70
)

CFDS = [
    CFD("omdb_rating_key", "omdb_mov2rating", ("omdbid",), "ratingid"),
    CFD("rating_symbol", "ratings", ("ratingid",), "symbol", injectable=False),
    CFD("imdb_title_key", "imdb_movies", ("imdbid",), "title"),
    CFD("omdb_title_key", "omdb_movies", ("omdbid",), "title"),
]


def generate(
    spark: SparkSession,
    *,
    n_movies: int = 800,
    n_pos: int = 100,
    n_neg: int = 200,
    exact_frac: float = 0.42,
    ambig_frac: float = 0.16,
    name_exact_frac: float = 0.85,
    usa_r_corr: float = 0.55,
    seed: int = 0,
) -> DirtyDataset:
    """Build the corpus; see module docstring for the mechanics."""
    rng = np.random.default_rng(seed)
    n = n_movies
    n_examples = n_pos + n_neg
    if n < int(n_examples * (1 + ambig_frac)) + 8:
        raise ValueError("n_movies too small for requested examples + ambiguity")
    canon = unique_phrases(n)
    years = rng.integers(1960, 2021, n)

    # Class structure: first n_pos movies are drama+R; the next n_neg
    # are negatives with a controlled mix; the rest are random filler.
    rating = np.empty(n, dtype=object)
    is_drama = np.zeros(n, dtype=bool)
    rating[:] = rng.choice(np.array(RATINGS, dtype=object), size=n)
    is_drama[:] = rng.random(n) < 0.35
    pos_idx = np.arange(0, n_pos)
    neg_idx = np.arange(n_pos, n_pos + n_neg)
    rating[pos_idx] = "R"
    is_drama[pos_idx] = True
    # Negative mix: 45% drama-not-R, 25% R-not-drama, 30% neither.
    for k, i in enumerate(neg_idx):
        u = k / max(1, len(neg_idx))
        if u < 0.45:
            is_drama[i] = True
            rating[i] = str(rng.choice([r for r in RATINGS if r != "R"]))
        elif u < 0.70:
            is_drama[i] = False
            rating[i] = "R"
        else:
            is_drama[i] = False
            rating[i] = str(rng.choice([r for r in RATINGS if r != "R"]))

    # Remake pairs: an ``ambig_frac`` share of example movies get a
    # filler-region partner with the same canonical title but a
    # class-flipping rating: a positive's remake is non-R (a wrong
    # top-1 match loses the R signal), a negative's remake is drama+R
    # (a wrong match fabricates it). True match stays within top-2.
    n_ambig = int(n_examples * ambig_frac)
    amb_examples = (
        np.linspace(0, n_examples - 1, n_ambig).astype(int) if n_ambig else []
    )
    partner: dict[int, int] = {}
    for p, i in enumerate(amb_examples):
        j = n_examples + p
        partner[int(i)] = j
        canon[j] = canon[i]
        delta = int(rng.integers(5, 30)) * (1 if rng.random() < 0.5 else -1)
        years[j] = int(years[i]) + delta
        if i < n_pos:
            # a positive's remake is non-R: a wrong match loses the signal
            rating[j] = str(rng.choice([r for r in RATINGS if r != "R"]))
            is_drama[j] = bool(rng.random() < 0.5)
        else:
            # a negative's remake is R but non-drama: only a learner that
            # cross-checks the genre on the matched side resists the noise
            rating[j] = "R"
            is_drama[j] = False
    # Mild country correlation with rating: the only imdb-side signal
    # beyond genre available to Castor-NoMD.
    p_usa = np.where(rating == "R", usa_r_corr, 0.45)
    country = np.where(
        rng.random(n) < p_usa,
        "USA",
        rng.choice(np.array([c for c in COUNTRIES if c != "USA"], dtype=object), size=n),
    )

    imdbid = [f"tt{i:07d}" for i in range(n)]
    omdbid = [f"om{i:06d}" for i in range(n)]
    imdb_title = [f"{canon[i]} ({years[i]})" for i in range(n)]
    omdb_title = []
    exact = rng.random(n) < exact_frac
    for i in range(n):
        if i in partner and rng.random() < 0.6:
            # Real-world remake confusion: the OMDB entry carries the
            # remake's year, so the greedy top-1 match resolves to the
            # wrong IMDB movie with similarity ~1 while the true match
            # is still within the top-k (the k_m mechanism).
            omdb_title.append(f"{canon[i]} ({years[partner[i]]})")
        elif exact[i]:
            omdb_title.append(imdb_title[i])
        else:
            omdb_title.append(perturb_string(canon[i], rng, strength=1))

    actors = person_names(max(50, n))
    writers = person_names(max(40, int(n * 0.8)))

    def people(pool, lo, hi):
        out = []
        for i in range(n):
            k = int(rng.integers(lo, hi + 1))
            out.append(list(rng.choice(len(pool), size=k, replace=False)))
        return out

    cast_idx = people(actors, 2, 3)
    writer_idx = people(writers, 1, 2)

    def name_repr(name: str, r: np.random.Generator) -> str:
        if r.random() < name_exact_frac:
            return name
        f, *rest = name.split()
        return f"{f[0]}. {' '.join(rest)}"

    genres_per_movie = []
    for i in range(n):
        g = {"drama"} if is_drama[i] else set()
        extra = rng.choice(
            np.array([x for x in GENRES if x != "drama"], dtype=object),
            size=int(rng.integers(1, 3)),
            replace=False,
        )
        g |= set(map(str, extra))
        if not is_drama[i]:
            g.discard("drama")
        genres_per_movie.append(sorted(g))

    rows = {
        "imdb_movies": [(imdbid[i], imdb_title[i]) for i in range(n)],
        "imdb_mov2genres": [
            (imdbid[i], g) for i in range(n) for g in genres_per_movie[i]
        ],
        "imdb_mov2countries": [(imdbid[i], str(country[i])) for i in range(n)],
        "imdb_mov2cast": [
            (imdbid[i], actors[a]) for i in range(n) for a in cast_idx[i]
        ],
        "imdb_mov2writers": [
            (imdbid[i], writers[w]) for i in range(n) for w in writer_idx[i]
        ],
        "omdb_movies": [(omdbid[i], omdb_title[i]) for i in range(n)],
        "omdb_mov2genres": [
            (omdbid[i], g) for i in range(n) for g in genres_per_movie[i]
        ],
        "omdb_mov2cast": [
            (omdbid[i], name_repr(actors[a], rng))
            for i in range(n)
            for a in cast_idx[i]
        ],
        "omdb_mov2writers": [
            (omdbid[i], name_repr(writers[w], rng))
            for i in range(n)
            for w in writer_idx[i]
        ],
        "omdb_mov2rating": [
            (omdbid[i], f"rt_{rating[i]}") for i in range(n)
        ],
        "ratings": [(f"rt_{r}", r) for r in RATINGS],
    }
    frames = build_frames(spark, RELATIONS, rows)
    pos = [(imdbid[i],) for i in pos_idx]
    neg = [(imdbid[i],) for i in neg_idx]
    return DirtyDataset(
        name="imdb_omdb",
        relations=RELATIONS,
        frames=frames,
        mds=[MD_TITLE],
        cfds=CFDS,
        target=TARGET,
        pos=pos,
        neg=neg,
        meta={
            "n_movies": n,
            "rating": {imdbid[i]: str(rating[i]) for i in range(n)},
            "is_drama": {imdbid[i]: bool(is_drama[i]) for i in range(n)},
        },
    )


def with_three_mds(ds: DirtyDataset) -> DirtyDataset:
    """The IMDB+OMDB (three MDs) configuration: titles + cast + writers.

    Returns a copy named ``imdb_omdb_3md``; ``ds`` keeps its MDs."""
    return replace(ds, name="imdb_omdb_3md", mds=[MD_TITLE, MD_CAST, MD_WRITER])
