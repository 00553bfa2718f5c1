"""String similarity operators used by DLearn (paper §5).

The paper's similarity operator is the *average* of:

* **Smith-Waterman-Gotoh** — local sequence alignment with affine gap
  penalties [Gotoh 1982], normalised to [0, 1] by the best attainable
  score of the shorter string; and
* **Length** — ``min(len(a), len(b)) / max(len(a), len(b))``.

These are pure functions (numpy DP per pair); the set-oriented top-k
similarity join that applies them at scale lives in
:mod:`repro.simjoin.blocked_join`.
"""
from __future__ import annotations

import numpy as np

# Classic SWG parameterisation: match reward, mismatch penalty, affine gaps.
MATCH = 2.0
MISMATCH = -1.0
GAP_OPEN = -2.0
GAP_EXTEND = -0.5


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
    av = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    bv = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
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

