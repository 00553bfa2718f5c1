"""Clause calculus for DLearn (paper §2.1, §3.2).

Terms are variables (``Var``) or constants (``Const``). Literals are
relation atoms plus three built-in families:

* similarity literals ``x ≈ y`` (``SIM``) added when a tuple was reached
  through an MD similarity match;
* equality literals ``x = y`` (``EQ``) restricting replacement variables;
* **repair literals** ``V_c(x, v_x)`` (``REPAIR``) representing the repair
  operation that replaces ``x`` with ``v_x`` when condition ``c`` holds.

Every repair literal carries

* ``constraint`` — the MD/CFD it enforces (``"md:title"``, ``"cfd:rating"``),
  used by θ-subsumption (Def. 4.4) to map repair literals constraint-to-
  constraint;
* ``group`` — one violation / one similarity match. Expansion (§3.2)
  treats each group as one repair decision;
* ``alt`` — alternative id within the group. Literals sharing
  ``(group, alt)`` are applied *together* (an MD match replaces both
  sides with one fresh value); distinct alts are *mutually exclusive*
  choices (a CFD violation is fixed by unifying the RHS one way OR the
  other OR renaming one LHS occurrence).

A clause is a head literal plus an ordered body. Order matters: ARMG
generalisation scans body literals in this fixed order to find blocking
literals (paper §4.2).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

SIM = "__sim__"
EQ = "__eq__"
REPAIR = "__repair__"
_BUILTINS = frozenset({SIM, EQ, REPAIR})


@dataclass(frozen=True, slots=True)
class Var:
    """A variable term. Names are unique within a clause."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """A constant term (a database value)."""

    value: object

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(self.value)


Term = Var | Const


@dataclass(frozen=True, slots=True)
class Literal:
    """``pred(args...)``; built-in preds are SIM/EQ/REPAIR."""

    pred: str
    args: tuple[Term, ...]
    constraint: str = ""
    group: str = ""
    alt: str = ""

    @property
    def is_builtin(self) -> bool:
        return self.pred in _BUILTINS

    @property
    def is_repair(self) -> bool:
        return self.pred == REPAIR

    def variables(self) -> set[Var]:
        return {a for a in self.args if isinstance(a, Var)}

    def substitute(self, theta: dict[Var, Term]) -> "Literal":
        return replace(
            self,
            args=tuple(
                theta.get(a, a) if isinstance(a, Var) else a for a in self.args
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(map(repr, self.args))
        tag = f"[{self.constraint}#{self.group}.{self.alt}]" if self.constraint else ""
        return f"{self.pred}{tag}({inner})"


def sim_lit(x: Term, y: Term) -> Literal:
    return Literal(SIM, (x, y))


def eq_lit(x: Term, y: Term) -> Literal:
    return Literal(EQ, (x, y))


def repair_lit(
    x: Term, vx: Term, *, constraint: str, group: str, alt: str = ""
) -> Literal:
    return Literal(REPAIR, (x, vx), constraint=constraint, group=group, alt=alt)


@dataclass(frozen=True)
class Clause:
    """Horn clause ``head :- body`` with ordered body literals."""

    head: Literal
    body: tuple[Literal, ...]

    def variables(self) -> set[Var]:
        out = set(self.head.variables())
        for lit in self.body:
            out |= lit.variables()
        return out

    def relation_literals(self) -> list[Literal]:
        return [l for l in self.body if not l.is_builtin]

    def repair_literals(self) -> list[Literal]:
        return [l for l in self.body if l.is_repair]

    def __len__(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.head!r} :- " + ", ".join(map(repr, self.body))


def head_connected(clause: Clause) -> Clause:
    """Drop body literals not head-connected (paper §2.1, §4.2).

    Relation literals must reach the head through shared variables
    (SIM/EQ literals bridge variables, mirroring the similarity joins of
    bottom-clause construction). Built-in literals survive only while
    every non-replacement variable they mention still occurs in a kept
    relation literal or the head; repair literals ride with the literal
    they modify (paper §3.2: restriction literals with a variable that
    appears in no schema literal are removed).
    """
    anchored: set[Var] = set(clause.head.variables())
    bridges = [l for l in clause.body if l.pred in (SIM, EQ)]
    pending = list(clause.relation_literals())
    kept_rel: list[Literal] = []
    changed = True
    while changed:
        changed = False
        for b in bridges:
            vs = b.variables()
            if vs & anchored and not vs <= anchored:
                anchored |= vs
                changed = True
        still: list[Literal] = []
        for lit in pending:
            if not lit.variables() or lit.variables() & anchored:
                kept_rel.append(lit)
                anchored |= lit.variables()
                changed = True
            else:
                still.append(lit)
        pending = still
    kept_ids = {id(l) for l in kept_rel}
    rel_vars: set[Var] = set(clause.head.variables())
    for l in kept_rel:
        rel_vars |= l.variables()
    # SIM literals survive only with both sides anchored by relation
    # literals (or the head) — a similarity join needs both endpoints.
    sim_vars: set[Var] = set()
    sim_kept_ids: set[int] = set()
    for lit in clause.body:
        if lit.pred == SIM and lit.variables() and lit.variables() <= rel_vars:
            sim_kept_ids.add(id(lit))
            sim_vars |= lit.variables()
    # Repair literals ride with what they modify: an MD repair needs its
    # similarity literal (its x must be a kept SIM endpoint); a CFD
    # repair needs every Var argument anchored by relation literals.
    repair_kept: list[Literal] = []
    for lit in clause.body:
        if not lit.is_repair:
            continue
        x = lit.args[0]
        if lit.constraint.startswith("md:"):
            if not isinstance(x, Var) or x in sim_vars:
                repair_kept.append(lit)
        else:
            if all(not isinstance(a, Var) or a in rel_vars for a in lit.args):
                repair_kept.append(lit)
    repair_kept_ids = {id(l) for l in repair_kept}
    repl_vars = {
        l.args[1] for l in repair_kept if isinstance(l.args[1], Var)
    }
    ordered: list[Literal] = []
    for lit in clause.body:
        if lit.pred == SIM:
            if id(lit) in sim_kept_ids:
                ordered.append(lit)
        elif lit.pred == EQ:
            if lit.variables() and all(
                v in rel_vars or v in repl_vars for v in lit.variables()
            ):
                ordered.append(lit)
        elif lit.is_repair:
            if id(lit) in repair_kept_ids:
                ordered.append(lit)
        elif id(lit) in kept_ids:
            ordered.append(lit)
    return Clause(clause.head, tuple(ordered))


def remove_redundant_literals(clause: Clause) -> Clause:
    """Drop relation literals implied by a sibling literal.

    In θ-subsumption two body literals may map to the same fact, so a
    literal ``p(a1..an)`` is redundant when another literal
    ``p(b1..bn)`` exists with ``ai == bi`` wherever ``ai`` is shared
    (occurs in another literal or the head): any substitution satisfying
    the sibling extends to the redundant literal by sending its private
    variables to the sibling's images. Bottom clauses accumulate many
    such literals (e.g. the other cast members of a movie reached
    through a shared actor); removing them is equivalence-preserving
    and keeps subsumption fast.
    """
    body = list(clause.body)
    changed = True
    while changed:
        changed = False
        occ: dict[Var, int] = {}
        for lit in [clause.head, *body]:
            for v in lit.variables():
                occ[v] = occ.get(v, 0) + 1
        head_vars = clause.head.variables()

        def private(v: Term) -> bool:
            return isinstance(v, Var) and occ.get(v, 0) == 1 and v not in head_vars

        by_pred: dict[str, list[int]] = {}
        for i, lit in enumerate(body):
            if not lit.is_builtin:
                by_pred.setdefault(lit.pred, []).append(i)
        drop: int | None = None
        for pred, idxs in by_pred.items():
            for i in idxs:
                li = body[i]
                # a literal with only private (or no) variables beyond
                # constants can fold into any same-constant sibling
                for j in idxs:
                    if i == j:
                        continue
                    lj = body[j]
                    if all(
                        a == b or private(a) for a, b in zip(li.args, lj.args)
                    ):
                        drop = i
                        break
                if drop is not None:
                    break
            if drop is not None:
                break
        if drop is not None:
            del body[drop]
            changed = True
    return head_connected(Clause(clause.head, tuple(body)))


def repair_choices(clause: Clause) -> dict[str, dict[str, list[Literal]]]:
    """``group -> alt -> repair literals`` for expansion and coverage."""
    groups: dict[str, dict[str, list[Literal]]] = {}
    for lit in clause.body:
        if lit.is_repair:
            groups.setdefault(lit.group, {}).setdefault(lit.alt, []).append(lit)
    return groups


def expand_repairs(
    clause: Clause,
    *,
    max_repairs: int = 64,
    constraint_prefix: str | None = None,
) -> list[Clause]:
    """Enumerate the repaired clauses of ``clause`` (paper §3.2).

    Per group the choices are: skip (the repair is not applied in this
    stable instance / repair) or apply one of its alternatives. Applying
    an alternative substitutes ``x := v_x`` for each of its repair
    literals, unifying EQ-linked replacement variables first (Example
    3.2: ``V(x,vx), V(t,vt), vx = vt`` maps both ``x`` and ``t`` to one
    value). The cross product of choices is capped at ``max_repairs``
    (breadth-first so every group contributes before any is exhausted);
    orphaned restriction literals are removed from each result.

    ``constraint_prefix`` restricts expansion to groups whose constraint
    id starts with it (the paper's §4.3 procedure: keep MD repair
    literals in place — θ-subsumption is sound *and complete* for them
    by Theorem 4.9 — and enumerate only the CFD repairs).
    """
    groups = repair_choices(clause)
    if constraint_prefix is not None:
        keep: dict[str, dict[str, list[Literal]]] = {}
        for gid, alts in groups.items():
            any_lit = next(iter(alts.values()))[0]
            if any_lit.constraint.startswith(constraint_prefix):
                keep[gid] = alts
        groups = keep
    if not groups:
        return [clause]
    group_ids = sorted(groups)
    combos: list[tuple[str | None, ...]] = [()]
    for gid in group_ids:
        options: list[str | None] = [None] + sorted(groups[gid])
        nxt: list[tuple[str | None, ...]] = []
        for opt in options:
            for c in combos:
                nxt.append(c + (opt,))
                if len(nxt) >= max_repairs:
                    break
            if len(nxt) >= max_repairs:
                break
        combos = nxt[:max_repairs]
    out: list[Clause] = []
    seen: set[tuple] = set()
    strip = set(group_ids)
    for combo in combos:
        picked: list[Literal] = []
        for gid, alt in zip(group_ids, combo):
            if alt is not None:
                picked.extend(groups[gid][alt])
        c = apply_repair_literals(clause, picked, strip_groups=strip)
        key = (c.head, c.body)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def apply_repair_literals(
    clause: Clause,
    picked: list[Literal],
    *,
    strip_groups: set[str] | None = None,
) -> Clause:
    """Apply the chosen repair literals; strip resolved repair literals.

    ``picked`` must be a union of whole ``(group, alt)`` alternatives.
    ``strip_groups`` limits which groups' repair literals are removed
    (default: all); repair literals of other groups stay in the clause
    as literals, per the §4.3 MD/CFD split. Substitution keys may be
    constants as well as variables: ground bottom clauses repair
    constants (e.g. a CFD RHS key value is rewired to the other
    violating tuple's key).
    """
    theta: dict[Term, Term] = {}
    picked_repls = [l.args[1] for l in picked if isinstance(l.args[1], Var)]
    # EQ restriction literals unify replacement variables of applied repairs.
    repl_canon: dict[Var, Var] = {}
    for lit in clause.body:
        if lit.pred == EQ:
            a, b = lit.args
            if (
                isinstance(a, Var)
                and isinstance(b, Var)
                and a in picked_repls
                and b in picked_repls
            ):
                ra = repl_canon.get(a, a)
                rb = repl_canon.get(b, b)
                canon = min(ra, rb, key=lambda v: v.name)
                for v in (a, b, ra, rb):
                    repl_canon[v] = canon
    for l in picked:
        x, vx = l.args
        tgt = repl_canon.get(vx, vx) if isinstance(vx, Var) else vx
        theta[x] = tgt

    def resolve(t: Term) -> Term:
        seen: set[Term] = set()
        while t in theta and t not in seen:
            seen.add(t)
            t = theta[t]
        if isinstance(t, Var) and t in repl_canon:
            t = repl_canon[t]
        return t

    def rewrite(lit: Literal) -> Literal:
        return replace(lit, args=tuple(resolve(a) for a in lit.args))

    new_head = rewrite(clause.head)
    new_body: list[Literal] = []
    seen_lits: set[Literal] = set()
    for lit in clause.body:
        if lit.is_repair and (strip_groups is None or lit.group in strip_groups):
            continue
        nl = rewrite(lit)
        if nl.pred == EQ and nl.args[0] == nl.args[1]:
            continue
        if nl in seen_lits:
            continue  # unification collapsed two literals into one
        seen_lits.add(nl)
        new_body.append(nl)
    rel_vars: set[Var] = set(new_head.variables())
    for l in new_body:
        if not l.is_builtin:
            rel_vars |= l.variables()
    repl_vars = {
        l.args[1]
        for l in new_body
        if l.is_repair and isinstance(l.args[1], Var)
    }
    ok_vars = rel_vars | repl_vars
    final = tuple(
        l
        for l in new_body
        if not l.is_builtin
        or l.is_repair
        or all(v in ok_vars for v in l.variables())
    )
    return Clause(new_head, final)
