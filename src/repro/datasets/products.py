"""Synthetic Walmart + Amazon corpus (paper §6.1.1, target
``upcOfComputersAccessories(upc)``).

The Walmart side knows ids/upcs, titles, group names and brands; the
Amazon side knows titles (dirty), categories, list prices and item
weights. A product's upc is in the target iff its Amazon category is
*Computers Accessories* — the category lives only on the Amazon side,
so the title similarity join carries the signal (paper's learned
definition joins ``walmart_title ≈ amazon_title`` then tests
``amazon_category``). A couple of Walmart brands are pure-accessory
("Tribeca" in the paper's definition), giving Castor-NoMD its only
foothold.

Dirtiness: near-zero exact title matches (Castor-Exact ≈ Castor-NoMD,
as in Table 4's Walmart row), strong perturbations and variant-pair
ambiguity (multi-packs) that push the true match below top-1 but inside
top-k — the monotone k_m trend of the Walmart row.

CFDs (paper reports 6; we model the class-relevant key dependencies):
``amazon_title: aid → title`` etc. Table 5 injects violations into
``amazon_cat`` (category id flipped).
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

CATEGORIES = [
    "ComputersAccessories",
    "Electronics",
    "HomeKitchen",
    "OfficeProducts",
    "ToysGames",
]
GROUPS = ["Electronics - General", "Home", "Office", "Toys"]
BRANDS = [
    "Tribeca", "Keystone", "Nordic", "Apex", "Vertex", "Lumina", "Orbit",
    "Pinnacle", "Quasar", "Zephyr",
]
#: brands whose products are (almost) all Computers Accessories
PURE_BRANDS = ("Tribeca", "Keystone")

RELATIONS: dict[str, Relation] = {
    "walmart_ids": Relation(
        "walmart_ids",
        (A("wid", "wid"), A("brandid", "w_brandid"), A("upc", "upc")),
    ),
    "walmart_title": Relation(
        "walmart_title", (A("wid", "wid"), A("title", "w_title"))
    ),
    "walmart_groupname": Relation(
        "walmart_groupname", (A("wid", "wid"), A("groupname", "w_group", "const"))
    ),
    "walmart_brand": Relation(
        "walmart_brand", (A("brandid", "w_brandid"), A("brand", "brand", "const"))
    ),
    "amazon_title": Relation(
        "amazon_title", (A("aid", "aid"), A("title", "a_title"))
    ),
    "amazon_cat": Relation(
        "amazon_cat", (A("aid", "aid"), A("catid", "a_catid"))
    ),
    "categories": Relation(
        "categories", (A("catid", "a_catid"), A("name", "category", "const"))
    ),
    "amazon_listprice": Relation(
        "amazon_listprice", (A("aid", "aid"), A("price", "price", "const"))
    ),
    "amazon_itemweight": Relation(
        "amazon_itemweight", (A("aid", "aid"), A("weight", "weight", "const"))
    ),
}

TARGET = TargetRelation("upcOfComputersAccessories", (A("upc", "upc"),))

MD_TITLE = MD("ptitle", "walmart_title", "title", "amazon_title", "title", 0.55)

CFDS = [
    CFD("amazon_cat_key", "amazon_cat", ("aid",), "catid"),
    CFD("amazon_title_key", "amazon_title", ("aid",), "title"),
    CFD("walmart_title_key", "walmart_title", ("wid",), "title"),
    CFD("walmart_upc_key", "walmart_ids", ("wid",), "upc"),
]


def generate(
    spark: SparkSession,
    *,
    n_products: int = 500,
    n_pos: int = 77,
    n_neg: int = 154,
    exact_frac: float = 0.03,
    ambig_frac: float = 0.25,
    pure_brand_frac: float = 0.22,
    seed: int = 0,
) -> DirtyDataset:
    """Build the corpus; see module docstring for the mechanics."""
    rng = np.random.default_rng(seed)
    n = n_products
    n_examples = n_pos + n_neg
    if n < int(n_examples * (1 + ambig_frac)) + 8:
        raise ValueError("n_products too small")
    canon = unique_phrases(n, words_a=BRANDS, seed=seed + 5)
    # Class structure: first n_pos products are ComputersAccessories.
    cat = np.array(
        rng.choice(np.array(CATEGORIES, dtype=object), size=n), dtype=object
    )
    cat[:n_pos] = "ComputersAccessories"
    for k in range(n_pos, n_examples):
        if cat[k] == "ComputersAccessories":
            cat[k] = str(
                rng.choice([c for c in CATEGORIES if c != "ComputersAccessories"])
            )
    # Brands: pure-accessory brands cover a slice of the positives and
    # (almost) never appear on negatives.
    brand = np.array(
        rng.choice(np.array([b for b in BRANDS if b not in PURE_BRANDS], dtype=object), size=n),
        dtype=object,
    )
    n_pure = int(n_pos * pure_brand_frac)
    for k in range(n_pure):
        brand[k] = PURE_BRANDS[k % len(PURE_BRANDS)]
    # Group names correlate loosely with the class.
    p_elec = np.where(cat == "ComputersAccessories", 0.85, 0.35)
    group = np.where(
        rng.random(n) < p_elec,
        "Electronics - General",
        rng.choice(np.array(GROUPS[1:], dtype=object), size=n),
    )
    # Variant-pair ambiguity: an example product gets a filler twin with
    # the same canonical name (a "2-Pack"/v2 variant) in the opposite
    # class, so a wrong top-1 match flips the category signal.
    n_ambig = int(n_examples * ambig_frac)
    amb = np.linspace(0, n_examples - 1, n_ambig).astype(int) if n_ambig else []
    for p, i in enumerate(amb):
        j = n_examples + p
        canon[j] = canon[i]
        cat[j] = (
            str(rng.choice([c for c in CATEGORIES if c != "ComputersAccessories"]))
            if i < n_pos
            else "ComputersAccessories"
        )
    wid = [f"w{i:06d}" for i in range(n)]
    aid = [f"a{i:06d}" for i in range(n)]
    upc = [f"upc{i:09d}" for i in range(n)]
    suffixes = ["", " 2-Pack", " v2", " Pro", " (Refurbished)"]
    w_title = [
        f"{brand[i]} {canon[i]}{suffixes[int(rng.integers(len(suffixes)))]}"
        for i in range(n)
    ]
    exact = rng.random(n) < exact_frac
    a_title = []
    for i in range(n):
        if exact[i]:
            a_title.append(w_title[i])
        else:
            a_title.append(
                perturb_string(f"{brand[i]} {canon[i]}", rng, strength=int(rng.integers(1, 3)))
            )
    catid = {c: f"cat_{k}" for k, c in enumerate(CATEGORIES)}
    brandid = {b: f"br_{k}" for k, b in enumerate(BRANDS)}
    rows = {
        "walmart_ids": [(wid[i], brandid[str(brand[i])], upc[i]) for i in range(n)],
        "walmart_title": [(wid[i], w_title[i]) for i in range(n)],
        "walmart_groupname": [(wid[i], str(group[i])) for i in range(n)],
        "walmart_brand": [(brandid[b], b) for b in BRANDS],
        "amazon_title": [(aid[i], a_title[i]) for i in range(n)],
        "amazon_cat": [(aid[i], catid[str(cat[i])]) for i in range(n)],
        "categories": [(catid[c], c) for c in CATEGORIES],
        "amazon_listprice": [
            (aid[i], f"${(5 + i % 90) * 1.0:.2f}") for i in range(n)
        ],
        "amazon_itemweight": [
            (aid[i], f"{0.2 + (i % 50) / 10.0:.1f} lb") for i in range(n)
        ],
    }
    frames = build_frames(spark, RELATIONS, rows)
    pos = [(upc[i],) for i in range(n_pos)]
    neg = [(upc[i],) for i in range(n_pos, n_examples)]
    return DirtyDataset(
        name="walmart_amazon",
        relations=RELATIONS,
        frames=frames,
        mds=[MD_TITLE],
        cfds=CFDS,
        target=TARGET,
        pos=pos,
        neg=neg,
        meta={"n_products": n, "category": {upc[i]: str(cat[i]) for i in range(n)}},
    )
