"""Synthetic DBLP + Google Scholar corpus (paper §6.1.1, target
``gsPaperYear(gsId, year)``).

DBLP is clean and complete: ``dblp_papers(did, title, venue, year)``.
Google Scholar rows are dirty and lack the year:
``scholar_papers(gsid, title, venue)``. The target pairs a Scholar id
with its publication year *as indicated in DBLP* — only reachable via
the title (and venue) similarity MDs, so Castor-NoMD learns nothing
(F1 = 0 in Table 4). Negatives pair a gsid with a wrong year.

Ambiguity: extended-abstract pairs — same title in two venues/years —
make the top-1 match unreliable; larger k_m recovers the true match
(the monotone k_m trend of the DBLP row).

CFDs: ``scholar_papers: gsid → title`` (paper §6.1.2: "id determines
title in Google Scholar") and ``dblp_papers: did → year``. Table 5
injects duplicate rows with a corrupted right-hand side, e.g. scholar
rows with corrupted titles, which break the match unless the repair
literals keep both variants.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.cfd.cfdtypes import CFD
from repro.core.dbmodel import Attribute as A
from repro.core.dbmodel import Relation, TargetRelation
from repro.datasets.base import DirtyDataset, build_frames
from repro.datasets.dirty import perturb_string, unique_phrases
from repro.md.mdtypes import MD

VENUES = [
    "SIGMOD Conference", "VLDB Journal", "ICDE Proceedings", "EDBT Conference",
    "PODS Symposium", "CIKM Conference", "KDD Conference", "ICML Proceedings",
]

TOPIC_WORDS = [
    "Querying", "Indexing", "Mining", "Learning", "Cleaning", "Sampling",
    "Streaming", "Joining", "Caching", "Profiling", "Ranking", "Matching",
    "Crawling", "Sketching", "Hashing", "Pruning", "Tuning", "Scaling",
]

RELATIONS: dict[str, Relation] = {
    "dblp_papers": Relation(
        "dblp_papers",
        (
            A("did", "did"),
            A("title", "d_title"),
            A("venue", "d_venue"),
            A("year", "year", search=False),
        ),
    ),
    "scholar_papers": Relation(
        "scholar_papers",
        (A("gsid", "gsid"), A("title", "s_title"), A("venue", "s_venue")),
    ),
}

TARGET = TargetRelation(
    "gsPaperYear", (A("gsid", "gsid"), A("year", "year"))
)

MD_TITLE = MD("atitle", "dblp_papers", "title", "scholar_papers", "title", 0.55)
MD_VENUE = MD("avenue", "dblp_papers", "venue", "scholar_papers", "venue", 0.60)

CFDS = [
    CFD("scholar_title_key", "scholar_papers", ("gsid",), "title"),
    CFD("dblp_year_key", "dblp_papers", ("did",), "year"),
]


def generate(
    spark: SparkSession,
    *,
    n_papers: int = 700,
    n_pos: int = 150,
    n_neg: int = 300,
    exact_frac: float = 0.40,
    ambig_frac: float = 0.30,
    seed: int = 0,
) -> DirtyDataset:
    """Build the corpus; see module docstring for the mechanics."""
    rng = np.random.default_rng(seed)
    n = n_papers
    # one negative consumes the same paper as a positive may; examples
    # index papers 0..n_pos-1 (pos) and wrong-year copies of others.
    if n < int(n_pos * (1 + ambig_frac)) + 8:
        raise ValueError("n_papers too small")
    canon = unique_phrases(n, words_a=TOPIC_WORDS, seed=seed + 11)
    titles = [f"{c} Databases" if i % 3 == 0 else c for i, c in enumerate(canon)]
    years = rng.integers(1995, 2016, n)
    venue = rng.choice(np.array(VENUES, dtype=object), size=n)
    # Extended-abstract pairs: a slice of the positives' papers get a
    # filler twin with the same title, a different venue and year.
    n_ambig = int(n_pos * ambig_frac)
    amb = np.linspace(0, n_pos - 1, n_ambig).astype(int) if n_ambig else []
    for p, i in enumerate(amb):
        j = n - 1 - p
        titles[j] = titles[i]
        delta = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        years[j] = max(1990, int(years[i]) + delta)
        venue[j] = str(rng.choice([v for v in VENUES if v != venue[i]]))
    did = [f"d{i:06d}" for i in range(n)]
    gsid = [f"gs{i:06d}" for i in range(n)]
    exact = rng.random(n) < exact_frac
    s_title, s_venue = [], []
    for i in range(n):
        if exact[i]:
            s_title.append(titles[i])
            s_venue.append(str(venue[i]))
        else:
            s_title.append(
                perturb_string(titles[i], rng, strength=int(rng.integers(1, 3)))
            )
            s_venue.append(perturb_string(str(venue[i]), rng, strength=1))
    rows = {
        "dblp_papers": [
            (did[i], titles[i], str(venue[i]), int(years[i])) for i in range(n)
        ],
        "scholar_papers": [(gsid[i], s_title[i], s_venue[i]) for i in range(n)],
    }
    frames = build_frames(spark, RELATIONS, rows)
    pos = [(gsid[i], int(years[i])) for i in range(n_pos)]
    # Negatives: same gsids with a wrong year (paper-style corruption),
    # plus other papers with wrong years.
    neg: list[tuple] = []
    k = 0
    while len(neg) < n_neg:
        i = k % n_pos if k < n_pos else (n_pos + k) % n
        wrong = int(years[i]) + int(rng.integers(1, 6)) * (
            1 if rng.random() < 0.5 else -1
        )
        if wrong != int(years[i]):
            neg.append((gsid[i], wrong))
        k += 1
    return DirtyDataset(
        name="dblp_scholar",
        relations=RELATIONS,
        frames=frames,
        mds=[MD_TITLE, MD_VENUE],
        cfds=CFDS,
        target=TARGET,
        pos=pos,
        neg=neg,
        meta={"n_papers": n, "year": {gsid[i]: int(years[i]) for i in range(n)}},
    )
