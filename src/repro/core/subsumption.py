"""θ-subsumption for clauses with similarity and repair literals.

``subsumes(C, D)`` decides whether clause C θ-subsumes clause D
(Def. 4.4): there is a substitution θ with Cθ ⊆ D where repair literals
are treated as normal literals but may only map to repair literals of
the *same constraint* (the constraint id encodes the condition c), and
the head of C must map onto the head of D.

D is typically a **ground bottom clause** (all constants), in which case
this is conjunctive-query evaluation over a small canonical database; C
may itself contain variables anywhere. The solver is exact backtracking
with most-constrained-literal ordering and forward checking on built-in
literals:

* ``EQ(x, y)``      — substituted sides must be equal (or map to the
  same ground EQ fact of D, which ground clauses expose as equal
  constants anyway);
* ``SIM(x, y)``     — substituted pair must appear as a SIM literal of D
  (or be equal: ``a ≈ a`` always holds);
* ``REPAIR(x, vx)`` — must map to a REPAIR literal of D with the same
  ``constraint``.

D is compiled once (:class:`CompiledClause`): its terms are interned to
ints, its facts kept per predicate in body order and indexed per
(predicate, argument position, value). C is laid out once
(:class:`Pattern`) and resolved against D's ids per call; its variables
become slots of one array that the search binds and unbinds in place.
Coverage, clause reduction and ARMG share this core.

Def. 4.4's second condition — every repair literal of D connected to a
mapped literal is itself mapped — is checked post-hoc on the found θ via
``_connected_repairs_ok`` (only needed when C is a candidate and D a
ground bottom clause with repair literals; see coverage.py).
"""
from __future__ import annotations

from repro.core.clause import (
    EQ,
    REPAIR,
    SIM,
    Clause,
    Const,
    Term,
    Var,
)

UNBOUND = -1  # empty slot; ids of D's terms are >= 0, C-private ids <= -2


class CompiledClause:
    """Clause D compiled for θ-subsumption.

    ``rows[pred]`` holds the id tuples of D's facts with that predicate
    in body order; a fact's position there is what the work budget
    counts. ``sources[(pred, constraint, arity)]`` lists the positions
    of the facts a literal of that shape can match, overall and per
    (argument position, value id). SIM/EQ facts are kept only as
    symmetric id-pair sets. A ground clause is compiled once per example
    (see ``GroundExample.compiled``); other clauses per call.
    """

    __slots__ = (
        "clause", "var_ids", "const_ids", "terms", "head", "rows", "sources", "sim_pairs", "eq_pairs"
    )

    def __init__(self, d: Clause):
        self.clause = d
        # Terms are interned by name / value: equal terms, one id, and the
        # hashing stays in C (a term's own dataclass hash is Python code).
        self.var_ids: dict[str, int] = {}
        self.const_ids: dict[object, int] = {}
        terms: list[Term] = []

        def intern(t: Term) -> int:
            ids, key = (self.var_ids, t.name) if isinstance(t, Var) else (self.const_ids, t.value)
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(terms)
                terms.append(t)
            return i

        self.head = tuple(intern(t) for t in d.head.args)
        rows: dict[str, list[tuple[int, ...]]] = {}
        sources: dict[tuple, tuple[list[int], list[dict[int, list[int]]]]] = {}
        self.sim_pairs: set[tuple[int, int]] = set()
        self.eq_pairs: set[tuple[int, int]] = set()
        for lit in d.body:
            args = tuple(intern(t) for t in lit.args)
            if lit.pred in (SIM, EQ):
                pairs = self.sim_pairs if lit.pred == SIM else self.eq_pairs
                pairs.add((args[0], args[1]))
                pairs.add((args[1], args[0]))
                continue
            facts = rows.setdefault(lit.pred, [])
            # A literal can match facts of its predicate, arity and, for
            # repair literals, constraint.
            key = (lit.pred, lit.constraint if lit.pred == REPAIR else "", len(args))
            src = sources.get(key)
            if src is None:
                src = sources[key] = ([], [{} for _ in args])
            src[0].append(len(facts))
            for by_val, v in zip(src[1], args):
                by_val.setdefault(v, []).append(len(facts))
            facts.append(args)
        self.terms = terms
        self.rows = rows
        self.sources = {
            key: (tuple(every), [{v: tuple(ps) for v, ps in by_val.items()} for by_val in by_pos])
            for key, (every, by_pos) in sources.items()
        }


class Pattern:
    """Clause C laid out once for testing against many compiled clauses.

    Variables are numbered into slots (by name, as D interns them) and
    literals split by kind; only the lookups into a particular D are left
    for :class:`_Query`. ``subsumes``/``find_substitution`` accept a
    Pattern in place of C, so a caller testing one clause against many
    examples (coverage, Plotkin reduction) prepares it once.
    """

    __slots__ = ("clause", "vars", "head", "body")

    def __init__(self, c: Clause):
        self.clause = c
        slot: dict[str, int] = {}
        self.vars: list[Var] = []

        def arg(t: Term) -> tuple[bool, object]:
            if isinstance(t, Var):
                s = slot.get(t.name)
                if s is None:
                    s = slot[t.name] = len(self.vars)
                    self.vars.append(t)
                return True, s
            return False, t

        self.head = tuple(arg(t) for t in c.head.args)
        # SIM/EQ: (is_eq, a_is_var, slot or Const, b_is_var, slot or Const);
        # relation/repair: (source key, ((pos, slot), ...), ((pos, constant
        # value), ...), whether a variable occurs twice).
        self.body: list[tuple] = []
        for lit in c.body:
            if lit.pred == SIM or lit.pred == EQ:
                self.body.append((lit.pred == EQ, *arg(lit.args[0]), *arg(lit.args[1])))
                continue
            args = [arg(t) for t in lit.args]
            var_pos = tuple((p, x) for p, (is_var, x) in enumerate(args) if is_var)
            self.body.append((
                (lit.pred, lit.constraint if lit.pred == REPAIR else "", len(args)),
                var_pos,
                tuple((p, x.value) for p, (is_var, x) in enumerate(args) if not is_var),
                len({x for _, x in var_pos}) < len(var_pos),
            ))


class _Query:
    """A :class:`Pattern` against one :class:`CompiledClause` D: what one
    search or ARMG scan runs on.

    Constants become D's ids, or private negative ids when D lacks them.
    A SIM/EQ literal compiles to ``(is_eq, a_is_var, a, b_is_var, b)``; a
    relation or repair literal to ``(rows, n_facts, base, base_pv, fixed,
    var_pos, repeat, by_pos)``:

    * ``rows``/``n_facts`` — D's facts with the literal's predicate;
    * ``base`` — positions to scan while no variable is bound: the
      shortest index list of its constants, else every fact of its shape;
      None when it can match no fact of D;
    * ``base_pv`` — the (position, value) ``base`` was looked up by;
    * ``fixed`` — the (position, value) of its other constants;
    * ``var_pos`` — (position, slot) of its variables;
    * ``repeat`` — whether a variable occurs twice in it;
    * ``by_pos`` — D's value index per argument position for its shape.
    """

    __slots__ = ("pattern", "d", "extra", "extra_terms", "body", "rel", "constraints")

    def __init__(self, pattern: Pattern, d: CompiledClause):
        self.pattern = pattern
        self.d = d
        self.extra: dict[Term, int] = {}
        self.extra_terms: list[Term] = []
        self.body: list[tuple] = []
        self.rel: list[tuple] = []
        self.constraints: list[tuple] = []
        const_ids = d.const_ids
        for entry in pattern.body:
            if len(entry) == 5:
                is_eq, a_var, a, b_var, b = entry
                comp = (
                    is_eq,
                    a_var, a if a_var else self.value_id(a),
                    b_var, b if b_var else self.value_id(b),
                )
                self.constraints.append(comp)
                self.body.append(comp)
                continue
            key, var_pos, consts, repeat = entry
            rows = d.rows.get(key[0], ())
            src = d.sources.get(key)
            base = base_pv = by_pos = None
            fixed = []
            if src is not None:
                base, by_pos = src
                for p, value in consts:
                    v = const_ids.get(value)
                    lst = by_pos[p].get(v)
                    if lst is None:
                        base = None  # a constant D lacks: no fact matches
                        break
                    if base_pv is None or len(lst) < len(base):
                        if base_pv is not None:
                            fixed.append(base_pv)
                        base, base_pv = lst, (p, v)
                    else:
                        fixed.append((p, v))
            comp = (rows, len(rows), base, base_pv, tuple(fixed), var_pos, repeat, by_pos)
            self.rel.append(comp)
            self.body.append(comp)

    def value_id(self, t: Term) -> int:
        """Id of term ``t`` as a value: D's id, else a private one."""
        d = self.d
        i = d.var_ids.get(t.name) if isinstance(t, Var) else d.const_ids.get(t.value)
        if i is None:
            i = self.extra.get(t)
            if i is None:
                i = self.extra[t] = -2 - len(self.extra_terms)
                self.extra_terms.append(t)
        return i

    def unify_head(self) -> list[int] | None:
        """Slot array with head(C) mapped onto head(D); None if impossible."""
        ch, dh = self.pattern.clause.head, self.d.clause.head
        if ch.pred != dh.pred or len(ch.args) != len(dh.args):
            return None
        if ch.is_repair and ch.constraint != dh.constraint:
            return None
        slots = [UNBOUND] * len(self.pattern.vars)
        for (is_var, x), v in zip(self.pattern.head, self.d.head):
            if not is_var:
                if self.d.const_ids.get(x.value) != v:
                    return None
            elif slots[x] == UNBOUND:
                slots[x] = v
            elif slots[x] != v:
                return None
        return slots

    def theta(self, slots: list[int]) -> dict[Var, Term]:
        terms, extra, names = self.d.terms, self.extra_terms, self.pattern.vars
        return {
            names[s]: terms[v] if v >= 0 else extra[-2 - v]
            for s, v in enumerate(slots)
            if v != UNBOUND
        }


def _candidates(lit: tuple, slots: list[int], k: int) -> tuple:
    """Facts ``lit`` unifies with under ``slots``, as positions in its
    ``rows`` in body order, and the work a linear scan of the
    predicate's facts would have done to find them.

    Candidates come from the shortest index list of the literal's bound
    positions; the other bound positions are checked by int comparison.
    With ``k > 0`` the scan stops at the k-th match and is charged up to
    and including it; otherwise it is charged every fact of the predicate.
    """
    rows, n, best, best_pv, fixed, var_pos, repeat, by_pos = lit
    if best is None:
        return (), n
    req = None
    for p, s in var_pos:
        v = slots[s]
        if v == UNBOUND:
            continue
        lst = by_pos[p].get(v)
        if lst is None:
            return (), n
        if len(lst) < len(best):
            if best_pv is not None:
                req = [best_pv] if req is None else [*req, best_pv]
            best, best_pv = lst, (p, v)
        else:
            req = [(p, v)] if req is None else [*req, (p, v)]
    if fixed:
        req = fixed if req is None else [*fixed, *req]
    same = None
    if repeat:  # a free variable at two positions: the fact's values must agree
        first: dict[int, int] = {}
        for p, s in var_pos:
            if slots[s] == UNBOUND:
                q = first.setdefault(s, p)
                if q != p:
                    same = [(p, q)] if same is None else [*same, (p, q)]
    if req is None and same is None:
        if 0 < k <= len(best):
            return best[:k], best[k - 1] + 1
        return best, n
    out = []
    for j in best:
        f = rows[j]
        for p, v in req or ():
            if f[p] != v:
                break
        else:
            for p, q in same or ():
                if f[p] != f[q]:
                    break
            else:
                out.append(j)
                if len(out) == k:
                    return out, j + 1
    return out, n


def _free(lit: tuple, slots: list[int]) -> list[tuple[int, int]]:
    """(position, slot) of each variable ``lit`` leaves unbound, first
    occurrence only: what a matching fact binds."""
    out = []
    for p, s in lit[5]:
        if slots[s] == UNBOUND and all(s != t for _, t in out):
            out.append((p, s))
    return out


def _solve(
    c: Pattern, d: CompiledClause, max_work: int
) -> tuple[dict[Var, Term] | None, int]:
    """First θ accepted by Def. 4.4 and the work spent finding it.

    Budgeted backtracking: ``max_work`` bounds the facts tried (one unit
    per fact a linear scan of the predicate would have unified), checked
    on entry to each search node, making a single subsumption call
    O(budget) worst-case. Exhausting the budget reports "no
    subsumption" — a sound under-approximation of coverage, in the
    spirit of the bounded-width generalisation the paper adopts from
    ProGolem.
    """
    q = _Query(c, d)
    slots = q.unify_head()
    if slots is None:
        return None, 0
    sim_pairs, eq_pairs = d.sim_pairs, d.eq_pairs
    work = 0

    def check(constraints: list[tuple]) -> list[tuple] | None:
        """Evaluate fully-bound constraint literals; return the pending
        ones, or None if one fails.

        A pattern term is *bound* when it is a constant or its slot is
        set — a θ-image that happens to be a variable of D is still
        bound (D's variables are frozen terms of its own universe; this
        matters for clause-to-clause subsumption, e.g. Plotkin
        reduction)."""
        pending = []
        for con in constraints:
            is_eq, a_var, a, b_var, b = con
            if a_var:
                a = slots[a]
            if b_var:
                b = slots[b]
            if a == UNBOUND or b == UNBOUND:
                pending.append(con)
            elif a != b and (a, b) not in (eq_pairs if is_eq else sim_pairs):
                return None
        return pending

    def leaf(constraints: list[tuple]) -> dict[Var, Term] | None:
        # Unbound vars left only in constraints: they are unconstrained
        # elsewhere, treat reflexively satisfiable EQ/SIM (x ≈ x) by
        # binding free side to the bound side.
        bound = []
        for _, a_var, a, b_var, b in constraints:
            a_free = a_var and slots[a] == UNBOUND
            b_free = b_var and slots[b] == UNBOUND
            if a_free and not b_free:
                slots[a] = slots[b] if b_var else b
                bound.append(a)
            elif b_free and not a_free:
                slots[b] = slots[a] if a_var else a
                bound.append(b)
            elif a_free:  # both free: tie a to the variable b itself
                slots[a] = q.value_id(c.vars[b])
                bound.append(a)
        theta = q.theta(slots) if check(constraints) is not None else None
        for s in bound:
            slots[s] = UNBOUND
        if theta is not None and _connected_repairs_ok(c.clause, d.clause, theta):
            return theta
        return None

    def search(remaining: list[tuple], constraints: list[tuple]) -> dict[Var, Term] | None:
        nonlocal work
        if work > max_work:
            return None
        if constraints:
            constraints = check(constraints)
            if constraints is None:
                return None
        if not remaining:
            return leaf(constraints)
        # Dynamic most-constrained-literal selection with fail-first
        # pruning: pick the literal with the fewest facts unifiable
        # under the current θ; a literal with zero candidates makes the
        # whole branch dead, so bail out immediately. A literal that
        # cannot beat the incumbent is scanned only up to a tie.
        best_i = k = 0
        best = None
        for i, lit in enumerate(remaining):
            cands, spent = _candidates(lit, slots, k)
            work += spent
            if best is None or len(cands) < k:
                if not cands:
                    return None  # dead end
                best_i, best, k = i, cands, len(cands)
                if k == 1:
                    break  # cannot do better than a forced choice
        lit = remaining[best_i]
        rows, bind = lit[0], _free(lit, slots)
        rest = remaining[:best_i] + remaining[best_i + 1 :]
        for j in best:
            f = rows[j]
            for p, s in bind:
                slots[s] = f[p]
            theta = search(rest, constraints)
            if theta is not None:
                return theta
        for _, s in bind:
            slots[s] = UNBOUND
        return None

    theta = search(q.rel, q.constraints)
    return theta, work


def find_substitution(
    c: Clause | Pattern, d: Clause | CompiledClause, *, max_work: int = 60_000
) -> dict[Var, Term] | None:
    """First θ with Cθ ⊆ D and head(C)θ = head(D); None if none exists."""
    if not isinstance(c, Pattern):
        c = Pattern(c)
    if not isinstance(d, CompiledClause):
        d = CompiledClause(d)
    return _solve(c, d, max_work)[0]


def subsumes(
    c: Clause | Pattern, d: Clause | CompiledClause, *, max_work: int = 60_000
) -> bool:
    """True iff C θ-subsumes D per Def. 4.4."""
    return find_substitution(c, d, max_work=max_work) is not None


def reduce_clause(clause: Clause, *, max_work: int = 20_000) -> Clause:
    """Plotkin reduction: drop body literals whose removal keeps the
    clause θ-equivalent.

    ``C \\ {L}`` always subsumes ``C`` (literal dropping); removal is
    equivalence-preserving iff ``C`` also θ-subsumes ``C \\ {L}``
    (with the head fixed). Bottom clauses accumulate literal groups
    that *fold* onto the seed example's own tuples (the other movies of
    a shared actor, and their genre/country satellites); reduction
    collapses them, which both sharpens the hypothesis and keeps later
    subsumption calls cheap. The subsumption test is budgeted, so
    reduction is conservative: an exhausted budget keeps the literal.
    """
    body = list(clause.body)
    changed = True
    while changed:
        changed = False
        full = Pattern(Clause(clause.head, tuple(body)))
        for i in range(len(body) - 1, -1, -1):
            cand = Clause(clause.head, tuple(body[:i] + body[i + 1 :]))
            if subsumes(full, cand, max_work=max_work):
                body = list(cand.body)
                full = Pattern(cand)
                changed = True
    return Clause(clause.head, tuple(body))


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
