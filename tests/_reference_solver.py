"""Frozen reference θ-subsumption solver and ARMG for parity tests.

A copy of the dict-based backtracking solver (``_Solver``) and frontier
ARMG that the compiled, indexed core in ``repro.core.subsumption``
replaced. The core must find the same θ (or None) and charge the same
work as this solver on every input, and ARMG must return the same
clause. Two edits to the copy: ``find_substitution`` also returns the
work spent, and ``armg`` drops its ``full_reduce`` option (a call to
``reduce_clause`` after the scan). Test-only: nothing under ``src/``
imports it.
"""
from __future__ import annotations

from typing import Iterator

from repro.core.clause import (
    EQ,
    SIM,
    Clause,
    Const,
    Literal,
    Term,
    Var,
    head_connected,
    remove_redundant_literals,
)


def _unify_literal(
    pattern: Literal, fact: Literal, theta: dict[Var, Term]
) -> dict[Var, Term] | None:
    """Extend ``theta`` so that pattern·θ == fact; None if impossible."""
    if pattern.pred != fact.pred or len(pattern.args) != len(fact.args):
        return None
    if pattern.is_repair and pattern.constraint != fact.constraint:
        return None
    out = dict(theta)
    for p, f in zip(pattern.args, fact.args):
        if isinstance(p, Const):
            if p != f:
                return None
        else:
            bound = out.get(p)
            if bound is None:
                out[p] = f
            elif bound != f:
                return None
    return out


def _term(theta: dict[Var, Term], t: Term) -> Term:
    return theta.get(t, t) if isinstance(t, Var) else t


class _Solver:
    """Budgeted backtracking: ``max_work`` bounds total unification
    attempts (search effort), making a single subsumption call O(budget)
    worst-case. Exhausting the budget reports "no subsumption" — a
    sound under-approximation of coverage, in the spirit of the
    bounded-width generalisation the paper adopts from ProGolem."""

    def __init__(self, c: Clause, d: Clause, *, max_work: int = 60_000):
        self.c = c
        self.d = d
        self.max_work = max_work
        self._work = 0
        self.d_by_pred: dict[str, list[Literal]] = {}
        for lit in d.body:
            self.d_by_pred.setdefault(lit.pred, []).append(lit)
        # SIM facts as an order-insensitive set of substituted pairs.
        self.sim_pairs: set[frozenset] = set()
        for lit in d.body:
            if lit.pred == SIM:
                self.sim_pairs.add(frozenset(lit.args))
        self.eq_pairs: set[frozenset] = {
            frozenset(l.args) for l in d.body if l.pred == EQ
        }

    def solutions(self) -> Iterator[dict[Var, Term]]:
        theta0 = _unify_literal(self.c.head, self.d.head, {})
        if theta0 is None:
            return
        rel = [l for l in self.c.body if l.pred not in (SIM, EQ)]
        constraints = [l for l in self.c.body if l.pred in (SIM, EQ)]
        yield from self._search(rel, constraints, theta0)

    def _check_constraints(
        self, constraints: list[Literal], theta: dict[Var, Term]
    ) -> tuple[list[Literal], bool]:
        """Evaluate fully-bound constraint literals; return (pending, ok).

        A pattern term is *bound* when it is a constant or already in θ —
        a θ-image that happens to be a variable of D is still bound (D's
        variables are frozen terms of its own universe; this matters for
        clause-to-clause subsumption, e.g. Plotkin reduction)."""
        pending: list[Literal] = []
        for lit in constraints:
            a = _term(theta, lit.args[0])
            b = _term(theta, lit.args[1])
            a_bound = not isinstance(lit.args[0], Var) or lit.args[0] in theta
            b_bound = not isinstance(lit.args[1], Var) or lit.args[1] in theta
            if a_bound and b_bound:
                if lit.pred == EQ:
                    if a != b and frozenset((a, b)) not in self.eq_pairs:
                        return [], False
                else:  # SIM
                    if a != b and frozenset((a, b)) not in self.sim_pairs:
                        return [], False
            else:
                pending.append(lit)
        return pending, True

    def _search(
        self,
        remaining: list[Literal],
        constraints: list[Literal],
        theta: dict[Var, Term],
    ) -> Iterator[dict[Var, Term]]:
        if self._work > self.max_work:
            return
        constraints, ok = self._check_constraints(constraints, theta)
        if not ok:
            return
        if not remaining:
            if constraints:
                # Unbound vars left only in constraints: they are
                # unconstrained elsewhere, treat reflexively satisfiable
                # EQ/SIM (x ≈ x) by binding free side to the bound side.
                theta2 = dict(theta)
                for lit in constraints:
                    a, b = lit.args
                    a_free = isinstance(a, Var) and a not in theta2
                    b_free = isinstance(b, Var) and b not in theta2
                    if a_free and not b_free:
                        theta2[a] = _term(theta2, b)
                    elif b_free and not a_free:
                        theta2[b] = _term(theta2, a)
                    elif a_free and b_free:
                        theta2[a] = b  # both free: tie together
                _, ok2 = self._check_constraints(constraints, theta2)
                if not ok2:
                    return
                yield theta2
                return
            yield theta
            return
        # Dynamic most-constrained-literal selection with fail-first
        # pruning: pick the literal with the fewest facts unifiable
        # under the current θ; a literal with zero candidates makes the
        # whole branch dead, so bail out immediately.
        best_i = -1
        best_cands: list[dict[Var, Term]] | None = None
        for i, lit in enumerate(remaining):
            cands = []
            for fact in self.d_by_pred.get(lit.pred, ()):
                self._work += 1
                t2 = _unify_literal(lit, fact, theta)
                if t2 is not None:
                    cands.append(t2)
                    if best_cands is not None and len(cands) >= len(best_cands):
                        break  # cannot beat the incumbent
            if best_cands is None or len(cands) < len(best_cands):
                best_i, best_cands = i, cands
                if not cands:
                    return  # dead end
                if len(cands) == 1:
                    break  # cannot do better than a forced choice
        rest = remaining[:best_i] + remaining[best_i + 1 :]
        for theta2 in best_cands or ():
            yield from self._search(rest, constraints, theta2)


def find_substitution(
    c: Clause, d: Clause, *, max_work: int = 60_000
) -> tuple[dict[Var, Term] | None, int]:
    """First θ with Cθ ⊆ D and head(C)θ = head(D), and the work spent."""
    solver = _Solver(c, d, max_work=max_work)
    for theta in solver.solutions():
        if _connected_repairs_ok(c, d, theta):
            return theta, solver._work
    return None, solver._work


def _connected_repairs_ok(
    c: Clause, d: Clause, theta: dict[Var, Term]
) -> bool:
    """Def. 4.4 condition 2.

    Every repair literal of D *connected to a mapped literal* must be the
    image of some repair literal of C. We approximate "connected" by
    first-argument overlap: repair literal ``V(x, vx)`` of D is connected
    to a mapped literal L iff x occurs in L's image. Mapped images are
    Cθ's non-repair literals; images of C's repair literals are the
    mapped repair set.
    """
    c_repairs = [l for l in c.body if l.is_repair]
    d_repairs = [l for l in d.body if l.is_repair]
    if not d_repairs:
        return True
    # A repair of D can only break coverage where C *constrains* the
    # repaired term: the image of a constant of C, or of a variable with
    # more than one occurrence (a join / similarity link). A term that C
    # touches through one free variable is repair-agnostic — any rename
    # keeps the mapping valid — so no corresponding repair literal is
    # demanded for it (Def. 4.4 restricted to load-bearing terms).
    occ: dict[Term, int] = {}
    non_repair = [c.head] + [l for l in c.body if not l.is_repair]
    for lit in non_repair:
        for a in lit.args:
            occ[a] = occ.get(a, 0) + 1
    constrained_images: set[Term] = set()
    for lit in non_repair:
        img = lit.substitute(theta)
        for a, ia in zip(lit.args, img.args):
            if isinstance(a, Const) or occ.get(a, 0) >= 2:
                constrained_images.add(ia)
    # Group/alt are per-clause bookkeeping; Def. 4.4 identifies repair
    # literals by their condition (constraint) and arguments.
    mapped_repair_keys = {
        (l.constraint, l.substitute(theta).args) for l in c_repairs
    }
    for dr in d_repairs:
        x = dr.args[0]
        if x not in constrained_images:
            continue  # not connected to a load-bearing mapped term
        if (dr.constraint, dr.args) in mapped_repair_keys:
            continue
        # The violation may be accounted for by a sibling alternative of
        # the same constraint repairing the same term.
        if any(
            k[0] == dr.constraint and k[1] and k[1][0] == x
            for k in mapped_repair_keys
        ):
            continue
        return False
    return True


def armg(
    c: Clause, g: Clause, *, max_width: int = 64
) -> Clause | None:
    """Asymmetric relative minimal generalisation of C w.r.t. G."""
    theta0 = _unify_literal(c.head, g.head, {})
    if theta0 is None:
        return None
    g_by_pred: dict[str, list[Literal]] = {}
    for lit in g.body:
        g_by_pred.setdefault(lit.pred, []).append(lit)
    sim_pairs = {frozenset(l.args) for l in g.body if l.pred == SIM}

    frontier: list[dict[Var, Term]] = [theta0]
    kept: list[Literal] = []
    for lit in c.body:
        if lit.pred in (SIM, EQ):
            new_frontier: list[dict[Var, Term]] = []
            for theta in frontier:
                a = _term(theta, lit.args[0])
                b = _term(theta, lit.args[1])
                a_free, b_free = isinstance(a, Var), isinstance(b, Var)
                if not a_free and not b_free:
                    if lit.pred == EQ:
                        if a == b:
                            new_frontier.append(theta)
                    else:
                        if a == b or frozenset((a, b)) in sim_pairs:
                            new_frontier.append(theta)
                elif a_free and not b_free:
                    t2 = dict(theta)
                    t2[a] = b
                    new_frontier.append(t2)
                elif b_free and not a_free:
                    t2 = dict(theta)
                    t2[b] = a
                    new_frontier.append(t2)
                else:
                    new_frontier.append(theta)  # both free: defer
            if new_frontier:
                frontier = new_frontier[:max_width]
                kept.append(lit)
            # else: blocking restriction literal -> dropped, frontier kept
        else:
            new_frontier = []
            for theta in frontier:
                for fact in g_by_pred.get(lit.pred, ()):  # type: ignore[arg-type]
                    t2 = _unify_literal(lit, fact, theta)
                    if t2 is not None:
                        new_frontier.append(t2)
                        if len(new_frontier) >= max_width:
                            break
                if len(new_frontier) >= max_width:
                    break
            if new_frontier:
                frontier = new_frontier
                kept.append(lit)
            # else: blocking literal -> dropped
    return remove_redundant_literals(head_connected(Clause(c.head, tuple(kept))))
