"""Shared machinery for synthesising dirty two-database corpora.

The Magellan datasets of the paper (IMDB+OMDB, Walmart+Amazon,
DBLP+Google Scholar) are not available offline; these helpers produce
synthetic stand-ins exhibiting the same dirtiness phenomena, each under
an explicit knob (see DESIGN.md §5):

* ``exact_frac`` — fraction of entities whose name string is byte-equal
  across the two databases (drives Castor-Exact's recall);
* ``ambig_frac`` — fraction of entities arranged in near-duplicate pairs
  (remakes / product variants / extended abstracts) whose top-1
  similarity match is unreliable (drives Castor-Clean's errors and the
  k_m trend);
* perturbation strength — how mangled the second database's strings are.

Everything is deterministic in ``seed`` (numpy Generator; no global
state).
"""
from __future__ import annotations

import numpy as np

ADJECTIVES = [
    "Silent", "Crimson", "Golden", "Broken", "Hidden", "Burning", "Frozen",
    "Midnight", "Savage", "Gentle", "Electric", "Hollow", "Distant", "Iron",
    "Velvet", "Wicked", "Lonely", "Rising", "Falling", "Ancient", "Neon",
    "Scarlet", "Emerald", "Wandering", "Restless", "Shattered", "Eternal",
    "Quiet", "Rapid", "Obsidian", "Amber", "Ivory", "Cobalt", "Lunar",
    "Solar", "Phantom", "Radiant", "Grim", "Merry", "Sober",
]

NOUNS = [
    "River", "Mountain", "Garden", "Harbor", "Empire", "Station", "Mirror",
    "Voyage", "Letter", "Winter", "Summer", "Shadow", "Tiger", "Falcon",
    "Orchard", "Castle", "Bridge", "Lantern", "Compass", "Anthem", "Canyon",
    "Island", "Meadow", "Thunder", "Serpent", "Harvest", "Beacon", "Cipher",
    "Voyager", "Monarch", "Pilgrim", "Outpost", "Raven", "Ember", "Glacier",
    "Horizon", "Junction", "Keystone", "Labyrinth", "Mariner",
]

FIRST_NAMES = [
    "Ava", "Noah", "Mia", "Liam", "Zoe", "Ethan", "Ivy", "Owen", "Ruth",
    "Caleb", "Nora", "Felix", "Iris", "Hugo", "Lena", "Oscar", "Tess",
    "Jonas", "Vera", "Silas", "Dara", "Milo", "Faye", "Rhys", "Uma",
    "Brent", "Cleo", "Dion", "Elsa", "Ford",
]

LAST_NAMES = [
    "Archer", "Bellamy", "Crawford", "Donovan", "Ellington", "Farrow",
    "Granger", "Holloway", "Irving", "Jennings", "Kessler", "Lockwood",
    "Mercer", "Norwood", "Osborne", "Prescott", "Quimby", "Ramsey",
    "Sterling", "Thatcher", "Underhill", "Vance", "Whitfield", "Xenos",
    "Yardley", "Zimmer", "Ashford", "Blackwell", "Caldwell", "Drummond",
]


# A large synthetic vocabulary: real corpora have distinctive titles, so
# two *different* titles rarely share words. A 40-word vocabulary makes
# spurious similarity neighbours dense (every title shares a noun with
# ~1/40 of the corpus), which inverts the paper's k_m trend; ~600
# generated words restore realistic sparsity.
_ONSETS = [
    "Bran", "Cor", "Del", "Fen", "Gar", "Hol", "Jor", "Kel", "Lum", "Mar",
    "Nor", "Ost", "Pel", "Quin", "Rav", "Sol", "Tor", "Ul", "Vor", "Wren",
    "Yar", "Zel", "Bel", "Cray", "Dor", "Fal", "Gil", "Har", "Isl", "Jun",
]
_RIMES = [
    "dale", "mont", "wick", "ford", "holm", "crest", "mere", "stone",
    "brook", "field", "grove", "haven", "ridge", "vale", "march", "port",
    "shire", "gate", "fell", "moor",
]
BIGWORDS = [o + r for o in _ONSETS for r in _RIMES]


def unique_phrases(
    n: int, *, words_a=None, words_b=None, seed: int = 99, n_words: int = 3
) -> list[str]:
    """``n`` distinct phrases of ``n_words`` words, deterministic in seed.

    Words are sampled (with collision retry) rather than enumerated in
    mixed radix, so any two distinct phrases differ in most positions —
    keeping wrong-pair similarity well below true-pair similarity, as
    with real-world titles.
    """
    a = words_a or BIGWORDS
    b = words_b or BIGWORDS
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        words = [a[int(rng.integers(len(a)))]]
        for _ in range(n_words - 1):
            words.append(b[int(rng.integers(len(b)))])
        if len(set(words)) < len(words):
            continue
        phrase = " ".join(words)
        if phrase in seen:
            continue
        seen.add(phrase)
        out.append(phrase)
    return out


def person_names(n: int) -> list[str]:
    out = []
    nf, nl = len(FIRST_NAMES), len(LAST_NAMES)
    for i in range(n):
        f = FIRST_NAMES[i % nf]
        l = LAST_NAMES[(i // nf) % nl]
        suffix = i // (nf * nl)
        out.append(f"{f} {l}" if not suffix else f"{f} {l} {suffix+1}")
    return out


def perturb_string(s: str, rng: np.random.Generator, *, strength: int = 1) -> str:
    """Apply ``strength`` random representational edits to ``s``.

    Edits mimic real heterogeneity: abbreviate a word, drop a leading
    article, lowercase, swap two characters, drop a short suffix token.
    The result stays recognisably similar (SWG local alignment high).
    """
    out = s
    for _ in range(strength):
        op = int(rng.integers(5))
        words = out.split()
        if op == 0 and len(words) >= 2:  # abbreviate longest word
            k = int(np.argmax([len(w) for w in words]))
            if len(words[k]) > 4:
                words[k] = words[k][:3] + "."
            out = " ".join(words)
        elif op == 1 and words and words[0] in ("The", "A"):
            out = " ".join(words[1:])
        elif op == 2:
            out = out.lower()
        elif op == 3 and len(out) > 5:  # transpose two adjacent chars
            i = int(rng.integers(1, len(out) - 1))
            out = out[: i - 1] + out[i] + out[i - 1] + out[i + 1 :]
        elif op == 4 and len(words) >= 3:  # drop last token
            out = " ".join(words[:-1])
    return out

