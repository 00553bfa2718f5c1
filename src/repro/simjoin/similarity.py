"""String similarity operators used by DLearn (paper §5).

The paper's similarity operator is the *average* of:

* **Smith-Waterman-Gotoh** — local sequence alignment with affine gap
  penalties [Gotoh 1982], normalised to [0, 1] by the best attainable
  score of the shorter string; and
* **Length** — ``min(len(a), len(b)) / max(len(a), len(b))``.

:func:`combined_similarity` scores one pair with a numpy DP per row and
is the scalar reference. :func:`combined_similarity_batch` scores many
pairs with one Gotoh DP per block of pairs, vectorised across the block
(the inter-sequence layout of SWIPE [Rognes 2011]), and returns exactly
the scalar scores. The set-oriented similarity join that applies them at
scale lives in :mod:`repro.simjoin.blocked_join`.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Classic SWG parameterisation: match reward, mismatch penalty, affine gaps.
MATCH = 2.0
MISMATCH = -1.0
GAP_OPEN = -2.0
GAP_EXTEND = -0.5

BATCH_BLOCK = 256  # pairs per vectorised DP in combined_similarity_batch
# Padding for the two sides of a block: above every code point, and unequal,
# so a padded cell never scores a match.
_PAD_A, _PAD_B = 0x110000, 0x110001


def smith_waterman_gotoh(a: str, b: str) -> float:
    """Normalised Smith-Waterman-Gotoh local-alignment similarity in [0, 1].

    Score is the best local alignment under (MATCH, MISMATCH, affine gap)
    divided by ``MATCH * min(len(a), len(b))`` — the score of perfectly
    aligning the shorter string — so identical strings score 1.0 and
    disjoint strings score 0.0. Case-insensitive.
    """
    a, b = a.lower(), b.lower()
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 1.0 if n == m else 0.0
    # Gotoh three-matrix DP, row-rolling. H: best ending here; E: gap in b
    # (horizontal); F: gap in a (vertical).
    av = np.frombuffer(a.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    bv = np.frombuffer(b.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    prev_h = np.zeros(m + 1)
    prev_f = np.full(m + 1, -np.inf)
    best = 0.0
    for i in range(1, n + 1):
        h = np.zeros(m + 1)
        f = np.full(m + 1, -np.inf)
        e = -np.inf
        sub = np.where(bv == av[i - 1], MATCH, MISMATCH)
        # E (gap in b) depends on h[j-1] of the same row -> sequential in j.
        diag = prev_h[:-1] + sub
        fcol = np.maximum(prev_h[1:] + GAP_OPEN, prev_f[1:] + GAP_EXTEND)
        for j in range(1, m + 1):
            e = max(h[j - 1] + GAP_OPEN, e + GAP_EXTEND)
            f[j] = fcol[j - 1]
            h[j] = max(0.0, diag[j - 1], e, f[j])
        best = max(best, float(h.max()))
        prev_h, prev_f = h, f
    return best / (MATCH * min(n, m))


def length_similarity(a: str, b: str) -> float:
    """``min(|a|,|b|) / max(|a|,|b|)`` — 1.0 iff equal length (or both empty)."""
    n, m = len(a), len(b)
    if n == 0 and m == 0:
        return 1.0
    if n == 0 or m == 0:
        return 0.0
    return min(n, m) / max(n, m)


def combined_similarity(a: str, b: str) -> float:
    """The paper's operator: average of SWG and Length similarity."""
    return 0.5 * (smith_waterman_gotoh(a, b) + length_similarity(a, b))


def _codes(strings: list[str], width: int, pad: int) -> np.ndarray:
    """``(width, len(strings))`` code points, one column per string,
    padded with ``pad``."""
    out = np.full((width, len(strings)), pad, dtype=np.uint32)
    for k, s in enumerate(strings):
        out[: len(s), k] = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return out


def _swg_block(a: list[str], b: list[str]) -> np.ndarray:
    """:func:`smith_waterman_gotoh` of every pair ``(a[k], b[k])`` of
    non-empty lowercased strings, in one DP over the block's largest
    n×m grid with the pairs along the last axis.

    Every cell does the scalar DP's additions in the scalar's order, and
    a cell outside a pair's own n×m region never feeds one inside it, so
    each pair's scores are bit-identical to the scalar ones.
    """
    n = np.array([len(s) for s in a])
    m = np.array([len(s) for s in b])
    av = _codes(a, int(n.max()), _PAD_A)
    bv = _codes(b, int(m.max()), _PAD_B)
    width = bv.shape[0]
    cols = np.arange(1, width + 1)[:, None] <= m  # j inside each pair's region
    prev_h = np.zeros((width + 1, len(a)))
    prev_f = np.full((width, len(a)), -np.inf)
    best = np.zeros(len(a))
    for i in range(av.shape[0]):
        diag = prev_h[:-1] + np.where(bv == av[i], MATCH, MISMATCH)
        f = np.maximum(prev_h[1:] + GAP_OPEN, prev_f + GAP_EXTEND)
        # h = max(0, diag, e, f): max is exact, so folding the terms that
        # do not depend on j first changes no bit.
        hdf = np.maximum(np.maximum(diag, 0.0), f)
        h = np.zeros_like(prev_h)
        e = np.full(len(a), -np.inf)
        for j in range(1, width + 1):
            e = np.maximum(h[j - 1] + GAP_OPEN, e + GAP_EXTEND)
            h[j] = np.maximum(hdf[j - 1], e)
        row_best = np.where(cols, h[1:], 0.0).max(axis=0)
        best = np.where(i < n, np.maximum(best, row_best), best)
        prev_h, prev_f = h, f
    return best / (MATCH * np.minimum(n, m))


def combined_similarity_batch(pairs: Sequence[tuple[str, str]]) -> list[float]:
    """:func:`combined_similarity` of every ``(a, b)`` in ``pairs``, in order.

    Pairs with an empty side take the scalar rule. The others are sorted
    by their lowercased lengths and cut into blocks of
    :data:`BATCH_BLOCK`, each scored by one vectorised DP
    (:func:`_swg_block`); the scores equal the scalar ones exactly.
    """
    out = [0.0] * len(pairs)
    todo = []
    for idx, (a, b) in enumerate(pairs):
        if a and b:
            la, lb = a.lower(), b.lower()
            todo.append((len(la), len(lb), idx, la, lb))
        else:
            out[idx] = combined_similarity(a, b)
    todo.sort(key=lambda t: t[:2])
    for start in range(0, len(todo), BATCH_BLOCK):
        block = todo[start : start + BATCH_BLOCK]
        swg = _swg_block([t[3] for t in block], [t[4] for t in block])
        for t, score in zip(block, swg.tolist()):
            a, b = pairs[t[2]]
            out[t[2]] = 0.5 * (score + length_similarity(a, b))
    return out
