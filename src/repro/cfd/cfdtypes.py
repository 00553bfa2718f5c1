"""Conditional-functional-dependency declarations (paper §2.3).

A CFD is ``(X → A, tp)`` over one relation, with a pattern tuple ``tp``
over X ∪ {A} whose entries are constants or the unnamed variable ``'-'``
(``WILD``). Per the paper we assume a single RHS attribute.

Our datasets use CFDs whose RHS attribute is a ``var``-domain (key-like)
attribute, so clause-level repair literals replace variables — the
paper's minimal-repair form (§4.1) that reuses the violation's own
variables (``V_c(z,t), V_c(t,z)``) rather than introducing fresh ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field

WILD = "-"


@dataclass(frozen=True)
class CFD:
    """``(lhs → rhs, pattern)`` on ``rel``.

    ``pattern`` maps attribute name → constant or ``WILD``; attributes
    absent from the pattern default to ``WILD``.
    """

    name: str
    rel: str
    lhs: tuple[str, ...]
    rhs: str
    pattern: tuple[tuple[str, object], ...] = ()
    #: whether the Table-5 injection harness may corrupt this relation's
    #: RHS (disabled for tiny lookup relations where corruption would
    #: cascade through CFD chains).
    injectable: bool = True

    @property
    def constraint_id(self) -> str:
        return f"cfd:{self.name}"

    def pattern_of(self, attr: str) -> object:
        for a, v in self.pattern:
            if a == attr:
                return v
        return WILD

