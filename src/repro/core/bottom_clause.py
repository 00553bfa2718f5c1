"""Bottom-clause construction (paper §4.1, Algorithm 2).

Starting from a training example, gather the tuples of the database
connected to it through ``d`` rounds of exact matches (SQL selections on
the :class:`~repro.core.dbmodel.LocalDB` indexes) and MD similarity
matches (lookups in the precomputed similar-pair tables, top ``k_m``
per value), capped at ``sample_size`` tuples per relation (paper §5's
sampling). Then variabilise and emit:

* one relation literal per gathered tuple (``var`` domains become
  variables keyed by ``(domain, value)`` so equal values join; ``const``
  domains stay constants — the theory constants carrying class signal);
* per MD match ``a ≈ b``: a similarity literal, two repair literals
  ``V(x_a, u1), V(x_b, u2)`` and the restriction literal ``u1 = u2``
  (§3.2) — one *group*, applied together;
* per CFD violation found in the clause: a repair-literal *group* with
  two mutually exclusive alternatives ``V(a1, a2)`` / ``V(a2, a1)`` —
  the paper's §4.1 minimal-repair form that reuses the violation's own
  RHS variables.

``ground=True`` produces the **ground bottom clause** used for coverage
testing (θ-subsumption target): values stay constants and each MD
match's replacement value is the fresh merged constant ``v_{a,b}``.

Every schema question is answered by two tables built once per call:
``(relation or target, attribute) → (domain after domain_map, kind)``
and, per ``(relation, position)``, the MD directions that search it.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.cfd.cfdtypes import WILD, CFD
from repro.core.clause import Clause, Const, Literal, Term, Var, eq_lit, repair_lit, sim_lit
from repro.core.dbmodel import LocalDB, TargetRelation
from repro.md.mdtypes import MD, SimTable

#: (relation or target name, attribute name) → (domain, kind)
Attrs = dict[tuple[str, str], tuple[str, str]]
#: (relation, position) → [(md, similar-pair map, searched values' domain, left-to-right)]
Hooks = dict[tuple[str, int], list[tuple[MD, dict, str, bool]]]


def merged_const(a: object, b: object) -> Const:
    """The fresh value ``v_{a,b}`` created by enforcing an MD on (a, b)."""
    x, y = sorted((str(a), str(b)))
    return Const(("⋈", x, y))


@dataclass
class BottomClauseConfig:
    """Knobs of Algorithm 2 (defaults follow the paper where stated)."""

    d: int = 4
    sample_size: int = 10
    k_m: int = 5  # cap on sim-match expansions per value per MD direction
    seed: int = 0
    domain_map: dict[str, str] = field(default_factory=dict)


def _schema(
    db: LocalDB,
    target: TargetRelation,
    mds: list[MD],
    sim_tables: dict[str, SimTable],
    domain_map: dict[str, str],
) -> tuple[Attrs, Hooks]:
    """The attribute table and the MD hooks, in ``mds`` × (l2r, r2l) order.

    An MD direction searches the attribute of its right (l2r) or left
    (r2l) side with the frontier values of the other side's domain.
    """
    attrs: Attrs = {}
    for rel in (*db.relations.values(), target):
        for a in rel.attrs:
            attrs[rel.name, a.name] = (domain_map.get(a.domain, a.domain), a.kind)
    hooks: Hooks = {}
    for md in mds:
        table = sim_tables.get(md.name)
        if table is None:
            continue
        left, right = (md.left_rel, md.left_attr), (md.right_rel, md.right_attr)
        for (rel, attr), other, mapping, l2r in (
            (right, left, table.left_to_right, True),
            (left, right, table.right_to_left, False),
        ):
            if rel not in db.relations or attrs.get((rel, attr), ("", ""))[1] != "var":
                continue
            j = db.relations[rel].attr_index(attr)
            hooks.setdefault((rel, j), []).append((md, mapping, attrs[other][0], l2r))
    return attrs, hooks


def gather(
    db: LocalDB,
    target: TargetRelation,
    example: tuple,
    attrs: Attrs,
    hooks: Hooks,
    cfg: BottomClauseConfig,
) -> tuple[list[tuple[str, tuple]], list[tuple[MD, object, object]]]:
    """Return (ordered tuples of I_e, MD matches ``(md, left, right)``)."""
    # zlib.crc32 rather than hash(): Python salts str hashes per
    # process, which would make sampling (and thus results) differ
    # between runs of the same job.
    example_key = zlib.crc32(repr(example).encode())
    rng = np.random.default_rng((cfg.seed * 1_000_003 + example_key) % (2**63))
    frontier = [
        (attrs[target.name, a.name][0], v)
        for a, v in zip(target.attrs, example)
        if a.kind == "var"
    ]
    known = set(frontier)
    i_e: list[tuple[str, tuple]] = []
    seen_tuples: set[tuple[str, int]] = set()
    per_rel: dict[str, int] = {}
    matches: list[tuple[MD, object, object]] = []
    sim_seen: set[tuple[str, object, object]] = set()
    # Values reached *through* a similarity match do not seed further
    # similarity searches: without this, matched titles ping-pong
    # back across the MD (imdb → omdb → other imdb movies → ...),
    # flooding the clause with unrelated chains as k_m grows.
    no_sim_expand: set[tuple[str, object]] = set()
    for _ in range(cfg.d):
        by_dom: dict[str, list[object]] = {}
        for fd, fv in frontier:
            by_dom.setdefault(fd, []).append(fv)
        new_frontier: list[tuple[str, object]] = []
        for rel in sorted(db.relations):
            cap = cfg.sample_size - per_rel.get(rel, 0)
            if cap <= 0:
                continue
            schema = db.relations[rel].attrs
            cand: dict[int, None] = {}  # insertion-ordered set
            # tuple → [(md, left, right, position it was reached through)]
            hits: dict[int, list[tuple[MD, object, object, int]]] = {}
            for j, attr in enumerate(schema):
                if attr.kind != "var":
                    continue
                if attr.search:
                    for fv in by_dom.get(attrs[rel, attr.name][0], ()):
                        cand.update(dict.fromkeys(db.lookup(rel, j, fv)))
                # MD similarity search ψ over this attribute.
                for md, mapping, src_dom, l2r in hooks.get((rel, j), ()):
                    for fv in by_dom.get(src_dom, ()):
                        if (src_dom, fv) in no_sim_expand:
                            continue
                        for mv, _s in mapping.get(fv, [])[: cfg.k_m]:
                            hit = (md, fv, mv, j) if l2r else (md, mv, fv, j)
                            for ti in db.lookup(rel, j, mv):
                                cand[ti] = None
                                hits.setdefault(ti, []).append(hit)
            # Sample up to the per-relation budget.
            fresh = [ti for ti in cand if (rel, ti) not in seen_tuples]
            if len(fresh) > cap:
                picks = sorted(rng.choice(len(fresh), size=cap, replace=False))
                fresh = [fresh[p] for p in picks]
            for ti in fresh:
                seen_tuples.add((rel, ti))
                row = db.tuples[rel][ti]
                i_e.append((rel, row))
                per_rel[rel] = per_rel.get(rel, 0) + 1
                matched_here = hits.get(ti, [])
                through = {j for *_, j in matched_here}
                for j, attr in enumerate(schema):
                    if attr.kind != "var":
                        continue
                    pair = (attrs[rel, attr.name][0], row[j])
                    if j in through:
                        no_sim_expand.add(pair)
                    if pair not in known:
                        known.add(pair)
                        new_frontier.append(pair)
                for md, lv, rv, _j in matched_here:
                    if (md.name, lv, rv) not in sim_seen:
                        sim_seen.add((md.name, lv, rv))
                        matches.append((md, lv, rv))
        frontier = new_frontier
        if not frontier:
            break
    return i_e, matches


def build_bottom_clause(
    db: LocalDB,
    target: TargetRelation,
    example: tuple,
    *,
    mds: list[MD],
    sim_tables: dict[str, SimTable],
    cfds: list[CFD],
    cfg: BottomClauseConfig,
    ground: bool = False,
) -> Clause:
    """Algorithm 2 + §3.2 literal construction for one example."""
    attrs, hooks = _schema(db, target, mds, sim_tables, cfg.domain_map)
    i_e, matches = gather(db, target, example, attrs, hooks, cfg)
    varmap: dict[tuple[str, object], Term] = {}

    def term(rel: str, attr_name: str, value: object) -> Term:
        dom, kind = attrs[rel, attr_name]
        if kind == "const" or ground:
            return Const(value)
        key = (dom, value)
        if key not in varmap:
            varmap[key] = Var(f"v{len(varmap)}")
        return varmap[key]

    def literal(rel: str, attr_list, row: tuple) -> Literal:
        return Literal(rel, tuple(term(rel, a.name, v) for a, v in zip(attr_list, row)))

    head = literal(target.name, target.attrs, example)
    body = [literal(rel, db.relations[rel].attrs, row) for rel, row in i_e]
    # MD similarity + repair literals (one group per match, single alt);
    # the replacement values are ``v_{a,b}`` (ground) or fresh ``u`` variables.
    for i, (md, lv, rv) in enumerate(matches):
        lt = term(md.left_rel, md.left_attr, lv)
        rt = term(md.right_rel, md.right_attr, rv)
        if ground:
            x = y = merged_const(lv, rv)
        else:
            x, y = Var(f"u{2 * i + 1}"), Var(f"u{2 * i + 2}")
        gid = f"{md.name}:{lv}:{rv}"
        body += [
            sim_lit(lt, rt),
            repair_lit(lt, x, constraint=md.constraint_id, group=gid),
            repair_lit(rt, y, constraint=md.constraint_id, group=gid),
            eq_lit(x, y),
        ]
    # CFD scan (§4.1): find violating literal pairs, add alternative repairs.
    # An empty ``cfds`` list is how callers switch CFD repair literals off.
    if cfds:
        body.extend(_cfd_repair_literals(db, body, cfds))
    return Clause(head, tuple(body))


def _cfd_repair_literals(db: LocalDB, body: list[Literal], cfds: list[CFD]) -> list[Literal]:
    """Repair literals for every CFD violation among the body literals."""
    out: list[Literal] = []
    by_rel: dict[str, list[Literal]] = {}
    for lit in body:
        if not lit.is_builtin:
            by_rel.setdefault(lit.pred, []).append(lit)
    for cfd in cfds:
        lits = by_rel.get(cfd.rel, [])
        if len(lits) < 2:
            continue
        rel = db.relations[cfd.rel]
        lhs_idx = [rel.attr_index(a) for a in cfd.lhs]
        rhs_idx = rel.attr_index(cfd.rhs)
        k = 0
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                l1, l2 = lits[i], lits[j]
                if any(l1.args[x] != l2.args[x] for x in lhs_idx):
                    continue
                a1, a2 = l1.args[rhs_idx], l2.args[rhs_idx]
                if a1 == a2:
                    continue
                # Pattern check: only decidable parts (constants in args).
                if not _pattern_ok(cfd, rel, l1) or not _pattern_ok(cfd, rel, l2):
                    continue
                gid = f"{cfd.name}:{k}"
                k += 1
                out.append(repair_lit(a1, a2, constraint=cfd.constraint_id, group=gid, alt="a"))
                out.append(repair_lit(a2, a1, constraint=cfd.constraint_id, group=gid, alt="b"))
    return out


def _pattern_ok(cfd: CFD, rel, lit: Literal) -> bool:
    for attr_name in (*cfd.lhs, cfd.rhs):
        p = cfd.pattern_of(attr_name)
        if p == WILD:
            continue
        arg = lit.args[rel.attr_index(attr_name)]
        if isinstance(arg, Const) and arg.value != p:
            return False
    return True
