"""Matching-dependency declarations (paper §2.2).

Normalised form (the paper reduces every MD to it): one similarity
comparison and one identification pair,

    ``R1[A] ≈ R2[B]  →  R1[A] ⇌ R2[B]``

(our datasets' MDs compare the same attribute pair they identify, as all
MDs in the paper's experiments do — titles, cast names, writer names,
venues).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MD:
    """``left_rel[left_attr] ≈ right_rel[right_attr] → ⇌`` with a
    similarity threshold used when precomputing the similar-pair table."""

    name: str
    left_rel: str
    left_attr: str
    right_rel: str
    right_attr: str
    threshold: float = 0.55

    @property
    def constraint_id(self) -> str:
        return f"md:{self.name}"


def _top_k(pairs, k: int) -> dict[object, list[tuple[object, float]]]:
    """``(key, value, sim)`` triples → per key its k best values, ordered
    by (−sim, value)."""
    out: dict[object, list[tuple[object, float]]] = {}
    for key, val, s in pairs:
        out.setdefault(key, []).append((val, s))
    for vals in out.values():
        vals.sort(key=lambda t: (-t[1], str(t[0])))
        del vals[k:]
    return out


#: Precomputed similar-pair table for one MD: for each left value the
#: top-k_m similar right values (and the reverse map), built from the
#: pairs the Spark blocked similarity join scored.
@dataclass
class SimTable:
    md: MD
    left_to_right: dict[object, list[tuple[object, float]]]
    right_to_left: dict[object, list[tuple[object, float]]]

    @staticmethod
    def from_pairs(md: MD, pairs: list[tuple[object, object, float]], k: int) -> "SimTable":
        """The one home of the MD's threshold and top-k cut: drop pairs
        below ``md.threshold``, keep the top k right values per left
        value, then build the reverse map from those kept pairs only and
        keep the top k left values per right value."""
        l2r = _top_k(((lv, rv, s) for lv, rv, s in pairs if s >= md.threshold), k)
        r2l = _top_k(((rv, lv, s) for lv, ms in l2r.items() for rv, s in ms), k)
        return SimTable(md, l2r, r2l)
