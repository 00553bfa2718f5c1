"""ARMG generalisation (paper §4.2, following ProGolem).

``armg(C, G)`` removes the *blocking literals* of clause C with respect
to the ground bottom clause G of another positive example, producing a
clause that θ-subsumes C (literal dropping only) and covers that
example. The scan keeps a frontier of partial substitutions (all ways
the processed prefix maps into G, up to ``max_width`` — ProGolem's own
bounded-width approximation):

* head unification seeds the frontier (no mapping → the example cannot
  be covered by any generalisation that keeps the head shape → None);
* a relation/repair literal extends every substitution against G's
  matching facts; zero extensions ⇒ the literal is *blocking* and is
  dropped, the frontier is left unchanged;
* SIM/EQ literals filter the frontier (binding a still-free side when
  the other is bound); an emptied frontier means the restriction is
  blocking — it is dropped and the frontier restored.

The scan runs over G compiled by the θ-subsumption core
(:class:`~repro.core.subsumption.CompiledClause`): a literal's matches
come from G's fact index in body order, scanned once per distinct value
of the substitutions on the literal's variables within its pass, and a
substitution is copied only for a fact that matches.

Finally :func:`~repro.core.clause.head_connected` removes literals
orphaned by the drops (paper: "all literals in the resulting clause are
head-connected"; repair literals whose anchor was dropped go with it).
"""
from __future__ import annotations

from repro.core.clause import (
    EQ,
    SIM,
    Clause,
    head_connected,
    remove_redundant_literals,
)
from repro.core.subsumption import (
    UNBOUND,
    CompiledClause,
    Pattern,
    _candidates,
    _free,
    _Query,
)


def armg(
    c: Clause,
    g: Clause | CompiledClause,
    *,
    max_width: int = 64,
) -> Clause | None:
    """Asymmetric relative minimal generalisation of C w.r.t. the ground
    clause G (pass ``GroundExample.compiled`` to reuse its compiled form)."""
    if not isinstance(g, CompiledClause):
        g = CompiledClause(g)
    q = _Query(Pattern(c), g)
    theta0 = q.unify_head()
    if theta0 is None:
        return None
    sim_pairs = g.sim_pairs

    # A substitution is a slot array; G is ground, so a slot is free
    # exactly when it is UNBOUND.
    frontier: list[list[int]] = [theta0]
    kept = []
    for lit, comp in zip(c.body, q.body):
        if lit.pred in (SIM, EQ):
            _, a_var, a0, b_var, b0 = comp
            new_frontier: list[list[int]] = []
            for theta in frontier:
                a = theta[a0] if a_var else a0
                b = theta[b0] if b_var else b0
                if a != UNBOUND and b != UNBOUND:
                    if a == b or (lit.pred == SIM and (a, b) in sim_pairs):
                        new_frontier.append(theta)
                elif a == UNBOUND and b != UNBOUND:
                    t2 = theta.copy()
                    t2[a0] = b
                    new_frontier.append(t2)
                elif b == UNBOUND and a != UNBOUND:
                    t2 = theta.copy()
                    t2[b0] = a
                    new_frontier.append(t2)
                else:
                    new_frontier.append(theta)  # both free: defer
            if new_frontier:
                frontier = new_frontier[:max_width]
                kept.append(lit)
            # else: blocking restriction literal -> dropped, frontier kept
        else:
            rows, var_slots = comp[0], [s for _, s in comp[5]]
            # A literal's matches and the slots they bind depend only on
            # θ's values on the literal's own slots: scan once per value.
            seen: dict[tuple, tuple] = {}
            new_frontier = []
            for theta in frontier:
                key = tuple([theta[s] for s in var_slots])
                hit = seen.get(key)
                if hit is None:
                    cands = _candidates(comp, theta)
                    hit = seen[key] = cands, _free(comp, theta) if cands else ()
                cands, bind = hit
                for j in cands[: max(1, max_width - len(new_frontier))]:
                    f = rows[j]
                    t2 = theta.copy()
                    for p, s in bind:
                        t2[s] = f[p]
                    new_frontier.append(t2)
                if len(new_frontier) >= max_width:
                    break
            if new_frontier:
                frontier = new_frontier
                kept.append(lit)
            # else: blocking literal -> dropped
    # Full Plotkin reduction is O(n²) subsumption calls; ARMG inputs are
    # already reduced bottom clauses, so only the cheap fold-onto-sibling
    # pass runs here (the covering loop Plotkin-reduces the finally
    # selected clause).
    return remove_redundant_literals(head_connected(Clause(c.head, tuple(kept))))
