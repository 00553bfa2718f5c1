"""θ-subsumption for clauses with similarity and repair literals.

``subsumes(C, D)`` decides whether clause C θ-subsumes clause D
(Def. 4.4): there is a substitution θ with Cθ ⊆ D where repair literals
are treated as normal literals but may only map to repair literals of
the *same constraint* (the constraint id encodes the condition c), and
the head of C must map onto the head of D.

D is typically a **ground bottom clause** (all constants), in which case
this is conjunctive-query evaluation over a small canonical database; C
may itself contain variables anywhere. The solver is exact backtracking
with most-constrained-literal ordering and forward checking: each
relation/repair literal carries its list of matching facts down the
search (computed when a node first needs it, cleared only when a slot
of its own is bound, restored on backtracking), and built-in literals
are checked as soon as both sides are bound:

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

from collections import Counter

from repro.core.clause import (
    EQ,
    REPAIR,
    SIM,
    Clause,
    Const,
    Literal,
    Term,
    Var,
)

UNBOUND = -1  # empty slot; ids of D's terms are >= 0, C-private ids <= -2


def _shape(lit: Literal) -> tuple[str, str, int]:
    """What a literal can match: facts of its predicate, arity and, for
    repair literals, constraint."""
    return lit.pred, lit.constraint if lit.pred == REPAIR else "", len(lit.args)


def _index(facts: list[tuple[Literal, tuple[int, ...]]]) -> tuple[dict, dict]:
    """``rows`` and ``sources`` of :class:`CompiledClause` for the given
    relation and repair literals (with their argument ids), in body order."""
    rows: dict[str, list[tuple[int, ...]]] = {}
    sources: dict[tuple, tuple[list[int], list[dict[int, list[int]]]]] = {}
    for lit, args in facts:
        pred_rows = rows.setdefault(lit.pred, [])
        key = _shape(lit)
        src = sources.get(key)
        if src is None:
            src = sources[key] = ([], [{} for _ in args])
        src[0].append(len(pred_rows))
        for by_val, v in zip(src[1], args):
            by_val.setdefault(v, []).append(len(pred_rows))
        pred_rows.append(args)
    return rows, {
        key: (tuple(every), [{v: tuple(ps) for v, ps in by_val.items()} for by_val in by_pos])
        for key, (every, by_pos) in sources.items()
    }


class CompiledClause:
    """Clause D compiled for θ-subsumption.

    ``rows[pred]`` holds the id tuples of D's facts with that predicate
    in body order; a fact's position there is what the work budget
    counts. ``sources[(pred, constraint, arity)]`` lists the positions
    of the facts a literal of that shape can match, overall and per
    (argument position, value id). SIM/EQ facts are kept only as
    symmetric id-pair sets. ``args[i]`` holds the ids of body literal i.
    A ground clause is compiled once per example (see
    ``GroundExample.compiled``); Plotkin reduction derives each drop-one
    candidate from its clause's compiled form (:meth:`without`).
    """

    __slots__ = (
        "clause", "var_ids", "const_ids", "terms", "head", "args", "rows", "sources",
        "sim_pairs", "eq_pairs",
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
        self.args = [tuple(intern(t) for t in lit.args) for lit in d.body]
        self.terms = terms
        self.sim_pairs: set[tuple[int, int]] = set()
        self.eq_pairs: set[tuple[int, int]] = set()
        facts = []
        for lit, args in zip(d.body, self.args):
            if lit.pred in (SIM, EQ):
                pairs = self.sim_pairs if lit.pred == SIM else self.eq_pairs
                pairs.add((args[0], args[1]))
                pairs.add((args[1], args[0]))
            else:
                facts.append((lit, args))
        self.rows, self.sources = _index(facts)

    def without(self, i: int) -> "CompiledClause":
        """D minus body literal ``i``, compiled.

        The term ids are shared with D; only the dropped literal's
        predicate is re-indexed, and a SIM/EQ pair goes only when no other
        literal states it. Fact positions, and so every θ and work count,
        are those of a fresh ``CompiledClause`` of the smaller clause.
        """
        d, lit = self.clause, self.clause.body[i]
        out = object.__new__(CompiledClause)
        out.clause = Clause(d.head, d.body[:i] + d.body[i + 1 :])
        out.var_ids, out.const_ids, out.terms, out.head = (
            self.var_ids, self.const_ids, self.terms, self.head
        )
        out.args = self.args[:i] + self.args[i + 1 :]
        out.rows, out.sources = self.rows, self.sources
        out.sim_pairs, out.eq_pairs = self.sim_pairs, self.eq_pairs
        if lit.pred in (SIM, EQ):
            a, b = self.args[i]
            if not any(
                other.pred == lit.pred and ids in ((a, b), (b, a))
                for other, ids in zip(out.clause.body, out.args)
            ):
                if lit.pred == SIM:
                    out.sim_pairs = self.sim_pairs - {(a, b), (b, a)}
                else:
                    out.eq_pairs = self.eq_pairs - {(a, b), (b, a)}
            return out
        rows, sources = _index([
            (other, ids) for other, ids in zip(out.clause.body, out.args) if other.pred == lit.pred
        ])
        out.rows = {p: f for p, f in self.rows.items() if p != lit.pred} | rows
        out.sources = {k: v for k, v in self.sources.items() if k[0] != lit.pred} | sources
        return out


class Pattern:
    """Clause C laid out once for testing against many compiled clauses.

    Variables are numbered into slots (by name, as D interns them) and
    literals split by kind; only the lookups into a particular D are left
    for :class:`_Query`. ``users[s]`` lists the relation/repair literals
    (numbered in body order among themselves) with a variable in slot s:
    the ones whose candidates change when the search binds s.
    ``subsumes``/``find_substitution`` accept a Pattern in place of C, so
    a caller testing one clause against many examples (coverage, Plotkin
    reduction) prepares it once.
    """

    __slots__ = ("clause", "vars", "head", "body", "users")

    def __init__(self, c: Clause):
        self.clause = c
        slot: dict[str, int] = {}
        self.vars: list[Var] = []
        self.users: list[list[int]] = []

        def arg(t: Term) -> tuple[bool, object]:
            if isinstance(t, Var):
                s = slot.get(t.name)
                if s is None:
                    s = slot[t.name] = len(self.vars)
                    self.vars.append(t)
                    self.users.append([])
                return True, s
            return False, t

        self.head = tuple(arg(t) for t in c.head.args)
        # SIM/EQ: (is_eq, a_is_var, slot or Const, b_is_var, slot or Const);
        # relation/repair: (source key, ((pos, slot), ...), ((pos, constant
        # value), ...), whether a variable occurs twice).
        self.body: list[tuple] = []
        n_rel = 0
        for lit in c.body:
            if lit.pred == SIM or lit.pred == EQ:
                self.body.append((lit.pred == EQ, *arg(lit.args[0]), *arg(lit.args[1])))
                continue
            args = [arg(t) for t in lit.args]
            var_pos = tuple((p, x) for p, (is_var, x) in enumerate(args) if is_var)
            used = {x for _, x in var_pos}
            for s in used:
                self.users[s].append(n_rel)
            n_rel += 1
            self.body.append((
                _shape(lit),
                var_pos,
                tuple((p, x.value) for p, (is_var, x) in enumerate(args) if not is_var),
                len(used) < len(var_pos),
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


def _candidates(lit: tuple, slots: list[int]) -> tuple | list:
    """Every fact ``lit`` unifies with under ``slots``, as positions in
    its ``rows`` in body order.

    Candidates come from the shortest index list of the literal's bound
    positions; the other bound positions are checked by int comparison.
    The list depends only on the values of the literal's own slots, so
    callers keep it while those slots stay as they are: the search per
    node (``_solve``), ARMG per substitution (``generalize.armg``).
    """
    rows, n, best, best_pv, fixed, var_pos, repeat, by_pos = lit
    if best is None:
        return ()
    req = None
    for p, s in var_pos:
        v = slots[s]
        if v == UNBOUND:
            continue
        lst = by_pos[p].get(v)
        if lst is None:
            return ()
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
        return best
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
    return out


def _free(lit: tuple, slots: list[int]) -> list[tuple[int, int]]:
    """(position, slot) of each variable ``lit`` leaves unbound, first
    occurrence only: what a matching fact binds."""
    out = []
    for p, s in lit[5]:
        if slots[s] == UNBOUND and all(s != t for _, t in out):
            out.append((p, s))
    return out


def _solve(
    c: Pattern, d: CompiledClause, max_work: int, *, repairs: bool = True
) -> tuple[dict[Var, Term] | None, int]:
    """First θ accepted by Def. 4.4 and the work spent finding it.

    With ``repairs=False`` Def. 4.4's second condition is not checked:
    the first θ with Cθ ⊆ D is returned.

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
        if theta is not None and (not repairs or _connected_repairs_ok(c.clause, d.clause, theta)):
            return theta
        return None

    # full[r]: every fact relation/repair literal r matches under the
    # current slots (``_candidates``), or None until a node needs it.
    # Binding a slot makes stale only the lists of that slot's users.
    rel, users = q.rel, c.users
    full: list = [None] * len(rel)

    def search(remaining: list[int], constraints: list[tuple]) -> dict[Var, Term] | None:
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
        # whole branch dead, so bail out immediately. Work is charged as
        # a linear scan of the predicate's facts would spend it: a
        # literal that cannot beat the incumbent's k candidates is
        # scanned only up to its k-th match, any other to the end.
        best_i = k = 0
        best = None
        for i, r in enumerate(remaining):
            cands = full[r]
            if cands is None:
                cands = full[r] = _candidates(rel[r], slots)
            if k and len(cands) >= k:
                work += cands[k - 1] + 1
                continue
            work += rel[r][1]
            if not cands:
                return None  # dead end
            best_i, best, k = i, cands, len(cands)
            if k == 1:
                break  # cannot do better than a forced choice
        lit = rel[remaining[best_i]]
        rows, bind = lit[0], _free(lit, slots)
        rest = remaining[:best_i] + remaining[best_i + 1 :]
        stale = {t for _, s in bind for t in users[s]}
        saved = [(t, full[t]) for t in stale]
        for j in best:
            f = rows[j]
            for p, s in bind:
                slots[s] = f[p]
            for t in stale:
                full[t] = None
            theta = search(rest, constraints)
            if theta is not None:
                return theta
        for t, cands in saved:
            full[t] = cands
        for _, s in bind:
            slots[s] = UNBOUND
        return None

    theta = search(list(range(len(rel))), q.constraints)
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

    Literals are tried last to first, in passes until one drops nothing.
    Most tests fail, and only the literals linked to L through shared
    non-head variables (its component K) can make them fail (Gottlob &
    Fermüller, "Removing redundancy from a clause", AIJ 61, 1993): any θ
    for C restricted to K maps ``head(C) :- K`` into ``C \\ {L}``. So K
    is searched first, without Def. 4.4's second condition; a search
    that ends within the budget without a θ settles the test as "no".
    Every other test runs the full budgeted search, so each verdict,
    and the reduced clause, is the one that search alone gives. Each
    candidate ``C \\ {L}`` is derived from C's compiled form
    (:meth:`CompiledClause.without`).
    """
    compiled = CompiledClause(clause)
    # A drop leaves every component it does not touch as it was, so each
    # ``head(C) :- K`` is laid out once per call.
    laid_out: dict[tuple[Literal, ...], Pattern] = {}
    changed = True
    while changed:
        changed = False
        full, parts = Pattern(compiled.clause), _components(compiled.clause, laid_out)
        for i in range(len(compiled.clause.body) - 1, -1, -1):
            cand = compiled.without(i)
            theta, work = _solve(parts[i], cand, max_work, repairs=False)
            if theta is None and work <= max_work:
                continue  # no θ for L's component, so none for C
            if _solve(full, cand, max_work)[0] is not None:
                compiled = cand
                full, parts = Pattern(cand.clause), _components(cand.clause, laid_out)
                changed = True
    return compiled.clause


def _components(c: Clause, laid_out: dict[tuple[Literal, ...], Pattern]) -> list[Pattern]:
    """Per body literal L, ``head(C) :- K`` laid out as a Pattern, where K
    is the body literals linked to L through shared non-head variables
    (L included), in body order. ``laid_out`` holds the Patterns already
    built, by K; new ones are added to it."""
    head_vars = {t.name for t in c.head.args if isinstance(t, Var)}
    parent = list(range(len(c.body)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    first: dict[str, int] = {}
    for i, lit in enumerate(c.body):
        for t in lit.args:
            if isinstance(t, Var) and t.name not in head_vars:
                parent[find(i)] = find(first.setdefault(t.name, i))
    members: dict[int, list[Literal]] = {}
    for i, lit in enumerate(c.body):
        members.setdefault(find(i), []).append(lit)
    patterns = {}
    for r, lits in members.items():
        body = tuple(lits)
        p = laid_out.get(body)
        if p is None:
            p = laid_out[body] = Pattern(Clause(c.head, body))
        patterns[r] = p
    return [patterns[find(i)] for i in range(len(c.body))]


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
    d_repairs = [l for l in d.body if l.pred == REPAIR]
    if not d_repairs:
        return True

    def image(t: Term) -> Term:
        return theta.get(t, t) if isinstance(t, Var) else t

    # A repair of D can only break coverage where C *constrains* the
    # repaired term: the image of a constant of C, or of a variable with
    # more than one occurrence (a join / similarity link). A term that C
    # touches through one free variable is repair-agnostic — any rename
    # keeps the mapping valid — so no corresponding repair literal is
    # demanded for it (Def. 4.4 restricted to load-bearing terms).
    non_repair = [c.head] + [l for l in c.body if l.pred != REPAIR]
    args = [a for lit in non_repair for a in lit.args]
    occ = Counter(a.name for a in args if isinstance(a, Var))
    constrained_images = {image(a) for a in args if isinstance(a, Const) or occ[a.name] >= 2}
    # Group/alt are per-clause bookkeeping; Def. 4.4 identifies repair
    # literals by their condition (constraint) and arguments.
    mapped_repair_keys = {
        (l.constraint, tuple(map(image, l.args))) for l in c.body if l.pred == REPAIR
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
