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
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.cfd.cfdtypes import WILD, CFD
from repro.core.clause import (
    Clause,
    Const,
    Literal,
    Term,
    Var,
    eq_lit,
    repair_lit,
    sim_lit,
)
from repro.core.dbmodel import LocalDB, TargetRelation
from repro.md.mdtypes import MD, SimTable


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


class _Builder:
    def __init__(
        self,
        db: LocalDB,
        target: TargetRelation,
        mds: list[MD],
        sim_tables: dict[str, SimTable],
        cfg: BottomClauseConfig,
    ):
        self.db = db
        self.target = target
        self.mds = mds
        self.sim_tables = sim_tables
        self.cfg = cfg

    # -- domain resolution -------------------------------------------------
    def _dom(self, raw: str) -> str:
        return self.cfg.domain_map.get(raw, raw)

    def _attr_dom(self, rel: str, attr: str) -> str:
        if rel == self.target.name:
            schema = self.target.attrs
        else:
            schema = self.db.relations[rel].attrs
        for a in schema:
            if a.name == attr:
                return self._dom(a.domain)
        raise KeyError(f"{rel}.{attr}")

    # -- Algorithm 2 -------------------------------------------------------
    def gather(self, example: tuple) -> tuple[list[tuple[str, tuple]], list]:
        """Return (ordered tuples of I_e, sim-match records)."""
        cfg = self.cfg
        # zlib.crc32 rather than hash(): Python salts str hashes per
        # process, which would make sampling (and thus results) differ
        # between runs of the same job.
        example_key = zlib.crc32(repr(example).encode())
        rng = np.random.default_rng(
            (cfg.seed * 1_000_003 + example_key) % (2**63)
        )
        frontier: list[tuple[str, object]] = []  # (domain, value)
        known: set[tuple[str, object]] = set()
        for a, v in zip(self.target.attrs, example):
            if a.kind == "var":
                pair = (self._dom(a.domain), v)
                frontier.append(pair)
                known.add(pair)
        i_e: list[tuple[str, tuple]] = []
        seen_tuples: set[tuple[str, int]] = set()
        per_rel: dict[str, int] = {}
        sim_records: list[tuple[MD, object, object, float, str, int]] = []
        sim_seen: set[tuple[str, object, object]] = set()
        # Values reached *through* a similarity match do not seed further
        # similarity searches: without this, matched titles ping-pong
        # back across the MD (imdb → omdb → other imdb movies → ...),
        # flooding the clause with unrelated chains as k_m grows.
        no_sim_expand: set[tuple[str, object]] = set()
        rel_names = sorted(self.db.relations)
        for _ in range(cfg.d):
            new_frontier: list[tuple[str, object]] = []
            for rel in rel_names:
                cap = cfg.sample_size - per_rel.get(rel, 0)
                if cap <= 0:
                    continue
                schema = self.db.relations[rel].attrs
                cand: list[int] = []
                cand_set: set[int] = set()
                hits: dict[int, list[tuple[MD, object, object, float, str]]] = {}
                for j, attr in enumerate(schema):
                    if attr.kind != "var":
                        continue
                    dom = self._dom(attr.domain)
                    if attr.search:
                        for fd, fv in frontier:
                            if fd != dom:
                                continue
                            for ti in self.db.lookup(rel, j, fv):
                                if ti not in cand_set:
                                    cand_set.add(ti)
                                    cand.append(ti)
                    # MD similarity search ψ over this attribute.
                    for md in self.mds:
                        table = self.sim_tables.get(md.name)
                        if table is None:
                            continue
                        for side, other_rel, other_attr, mapping in (
                            ("l2r", md.left_rel, md.left_attr, table.left_to_right),
                            ("r2l", md.right_rel, md.right_attr, table.right_to_left),
                        ):
                            this_rel = md.right_rel if side == "l2r" else md.left_rel
                            this_attr = (
                                md.right_attr if side == "l2r" else md.left_attr
                            )
                            if this_rel != rel or this_attr != attr.name:
                                continue
                            src_dom = self._attr_dom(other_rel, other_attr)
                            for fd, fv in frontier:
                                if fd != src_dom or (fd, fv) in no_sim_expand:
                                    continue
                                for mv, s in mapping.get(fv, [])[: cfg.k_m]:
                                    for ti in self.db.lookup(rel, j, mv):
                                        if ti not in cand_set:
                                            cand_set.add(ti)
                                            cand.append(ti)
                                        lv, rv = (
                                            (fv, mv) if side == "l2r" else (mv, fv)
                                        )
                                        hits.setdefault(ti, []).append(
                                            (md, lv, rv, s, side)
                                        )
                # Sample up to the per-relation budget.
                fresh = [ti for ti in cand if (rel, ti) not in seen_tuples]
                if len(fresh) > cap:
                    picks = sorted(rng.choice(len(fresh), size=cap, replace=False))
                    fresh = [fresh[p] for p in picks]
                for ti in fresh:
                    seen_tuples.add((rel, ti))
                    row = self.db.tuples[rel][ti]
                    i_e.append((rel, row))
                    per_rel[rel] = per_rel.get(rel, 0) + 1
                    matched_here = hits.get(ti, [])
                    for j, attr in enumerate(schema):
                        if attr.kind != "var":
                            continue
                        pair = (self._dom(attr.domain), row[j])
                        if any(
                            (rv if side == "l2r" else lv) == row[j]
                            and (
                                md.right_attr if side == "l2r" else md.left_attr
                            )
                            == attr.name
                            for md, lv, rv, s, side in matched_here
                        ):
                            no_sim_expand.add(pair)
                        if pair not in known:
                            known.add(pair)
                            new_frontier.append(pair)
                    for md, lv, rv, s, side in matched_here:
                        key = (md.name, lv, rv)
                        if key not in sim_seen:
                            sim_seen.add(key)
                            sim_records.append((md, lv, rv, s, side, ti))
            frontier = new_frontier
            if not frontier:
                break
        return i_e, sim_records


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
    b = _Builder(db, target, mds, sim_tables, cfg)
    i_e, sim_records = b.gather(example)

    varmap: dict[tuple[str, object], Term] = {}
    counter = [0]

    def term(rel: str, attr_name: str, value: object) -> Term:
        dom_kind = None
        schema = (
            target.attrs if rel == target.name else db.relations[rel].attrs
        )
        for a in schema:
            if a.name == attr_name:
                dom_kind = (b._dom(a.domain), a.kind)
                break
        assert dom_kind is not None
        dom, kind = dom_kind
        if kind == "const":
            return Const(value)
        if ground:
            return Const(value)
        key = (dom, value)
        if key not in varmap:
            varmap[key] = Var(f"v{counter[0]}")
            counter[0] += 1
        return varmap[key]

    head = Literal(
        target.name,
        tuple(
            term(target.name, a.name, v) for a, v in zip(target.attrs, example)
        ),
    )
    body: list[Literal] = []
    for rel, row in i_e:
        schema = db.relations[rel].attrs
        body.append(
            Literal(rel, tuple(term(rel, a.name, v) for a, v in zip(schema, row)))
        )
    # MD similarity + repair literals (one group per match, single alt).
    fresh_i = [0]

    def fresh(prefix: str) -> Var:
        fresh_i[0] += 1
        return Var(f"{prefix}{fresh_i[0]}")

    for md, lv, rv, s, side, _ti in sim_records:
        lt = term(md.left_rel, md.left_attr, lv)
        rt = term(md.right_rel, md.right_attr, rv)
        gid = f"{md.name}:{lv}:{rv}"
        body.append(sim_lit(lt, rt))
        if ground:
            mc = merged_const(lv, rv)
            body.append(
                repair_lit(lt, mc, constraint=md.constraint_id, group=gid)
            )
            body.append(
                repair_lit(rt, mc, constraint=md.constraint_id, group=gid)
            )
            body.append(eq_lit(mc, mc))
        else:
            u1, u2 = fresh("u"), fresh("u")
            body.append(
                repair_lit(lt, u1, constraint=md.constraint_id, group=gid)
            )
            body.append(
                repair_lit(rt, u2, constraint=md.constraint_id, group=gid)
            )
            body.append(eq_lit(u1, u2))
    # CFD scan (§4.1): find violating literal pairs, add alternative repairs.
    # An empty ``cfds`` list is how callers switch CFD repair literals off.
    if cfds:
        body.extend(_cfd_repair_literals(db, target, body, cfds))
    return Clause(head, tuple(body))


def _cfd_repair_literals(
    db: LocalDB,
    target: TargetRelation,
    body: list[Literal],
    cfds: list[CFD],
) -> list[Literal]:
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
                out.append(
                    repair_lit(
                        a1, a2, constraint=cfd.constraint_id, group=gid, alt="a"
                    )
                )
                out.append(
                    repair_lit(
                        a2, a1, constraint=cfd.constraint_id, group=gid, alt="b"
                    )
                )
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
