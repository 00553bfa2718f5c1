"""DLearn: covering loop + bottom-up LearnClause (paper Alg. 1, §4).

``DLearn.fit`` learns a Horn definition over a (dirty) database:

1. precompute the ground bottom clause + repaired clauses of every
   training example (:class:`~repro.core.coverage.GroundStore`);
2. covering loop: pick an uncovered positive seed, build its bottom
   clause (Algorithm 2, with MD similarity and CFD repair literals),
   generalise it with ARMG against batches of other uncovered positives,
   scoring each candidate by ``#pos − #neg`` covered (Defs. 3.4/3.6),
   and keep the best until the score stops improving;
3. accept the clause if it covers ≥ ``min_pos`` uncovered positives
   with precision ≥ ``MIN_PRECISION`` over the training set, remove the
   covered positives, and repeat.

The same engine, reconfigured, implements the paper's baselines (see
:mod:`repro.baselines.castor`): no MDs, exact-join MDs (domain merge),
or learning over a cleaned/repaired database.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cfd.cfdtypes import CFD
from repro.core.bottom_clause import BottomClauseConfig, build_bottom_clause
from repro.core.clause import Clause, head_connected, remove_redundant_literals
from repro.core.coverage import (
    CANDIDATE_MAX_REPAIRS,
    GroundExample,
    GroundStore,
    LocalCoverageEngine,
)
from repro.core.dbmodel import LocalDB, TargetRelation
from repro.core.generalize import armg
from repro.core.subsumption import reduce_clause
from repro.md.mdtypes import MD, SimTable


N_CANDIDATES = 8  # ground clauses ARMG'd against the current clause per round
MIN_PRECISION = 0.6  # an accepted clause's precision over the training set
MAX_CLAUSES = 8  # clauses per definition
MAX_GENERALIZE_ROUNDS = 4  # ARMG rounds per LearnClause
MAX_SEED_ATTEMPTS = 8  # seeds tried per fit


@dataclass
class DLearnConfig:
    """Learner hyper-parameters (paper values where stated)."""

    bc: BottomClauseConfig = field(default_factory=BottomClauseConfig)
    min_pos: int = 2
    max_repairs: int = CANDIDATE_MAX_REPAIRS
    seed: int = 7


@dataclass
class Definition:
    """A learned Horn definition: a set of clauses with train stats."""

    target: str
    clauses: list[Clause]
    stats: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clauses)


class DLearn:
    def __init__(
        self,
        db: LocalDB,
        target: TargetRelation,
        *,
        mds: list[MD],
        sim_tables: dict[str, SimTable],
        cfds: list[CFD],
        config: DLearnConfig | None = None,
        engine_factory=None,
    ):
        self.db = db
        self.target = target
        self.mds = mds
        self.sim_tables = sim_tables
        self.cfds = cfds
        self.cfg = config or DLearnConfig()
        # engine_factory: GroundStore -> coverage engine; default local.
        self.engine_factory = engine_factory or (
            lambda store: LocalCoverageEngine(
                store, max_repairs=self.cfg.max_repairs
            )
        )

    # -- ground bottom clauses --------------------------------------------
    def ground_store(self, examples: list[tuple]) -> GroundStore:
        """Ground bottom clauses for ``examples`` (memoised: an example's
        ground clause is fold-independent, so cross-validation folds
        share the cache)."""
        cache = getattr(self, "_ground_cache", None)
        if cache is None:
            cache = self._ground_cache = {}
        out = {}
        for ex in examples:
            gx = cache.get(ex)
            if gx is None:
                ge = build_bottom_clause(
                    self.db,
                    self.target,
                    ex,
                    mds=self.mds,
                    sim_tables=self.sim_tables,
                    cfds=self.cfds,
                    cfg=self.cfg.bc,
                    ground=True,
                )
                gx = cache[ex] = GroundExample.of(ex, ge)
            out[ex] = gx
        return GroundStore(out)

    # -- learning -----------------------------------------------------------
    def fit(
        self,
        pos: list[tuple],
        neg: list[tuple],
        *,
        store: GroundStore | None = None,
    ) -> Definition:
        rng = np.random.default_rng(self.cfg.seed)
        if store is None:
            store = self.ground_store(list(pos) + list(neg))
        engine = self.engine_factory(store)
        try:
            return self._cover(pos, neg, store, engine, rng)
        finally:
            engine.unpersist()  # release the store's broadcast, if any

    def _cover(self, pos, neg, store, engine, rng) -> Definition:
        """Algorithm 1's covering loop over one fold's store and engine."""
        cfg = self.cfg
        uncovered = list(pos)
        clauses: list[Clause] = []
        stats: list[dict] = []
        dead_seeds: set[tuple] = set()
        attempts = 0
        while uncovered and len(clauses) < MAX_CLAUSES:
            attempts += 1
            if attempts > MAX_SEED_ATTEMPTS:
                break
            candidates_pool = [e for e in uncovered if e not in dead_seeds]
            if not candidates_pool:
                break
            seed_ex = candidates_pool[int(rng.integers(len(candidates_pool)))]
            clause = self._learn_clause(seed_ex, uncovered, neg, store, engine, rng)
            if clause is None:
                dead_seeds.add(seed_ex)
                continue
            pos_mask = engine.covered(clause, uncovered, positive=True)
            n_pos = sum(pos_mask)
            neg_mask = engine.covered(clause, list(neg), positive=False)
            n_neg = sum(neg_mask)
            precision = n_pos / (n_pos + n_neg) if (n_pos + n_neg) else 0.0
            if n_pos >= cfg.min_pos and precision >= MIN_PRECISION:
                clauses.append(clause)
                stats.append(
                    {"pos_covered": n_pos, "neg_covered": n_neg, "precision": precision}
                )
                uncovered = [e for e, m in zip(uncovered, pos_mask) if not m]
            else:
                dead_seeds.add(seed_ex)
        return Definition(self.target.name, clauses, stats)

    def _learn_clause(
        self,
        seed_ex: tuple,
        uncovered: list[tuple],
        neg: list[tuple],
        store: GroundStore,
        engine,
        rng: np.random.Generator,
    ) -> Clause | None:
        cfg = self.cfg
        bottom = build_bottom_clause(
            self.db,
            self.target,
            seed_ex,
            mds=self.mds,
            sim_tables=self.sim_tables,
            cfds=self.cfds,
            cfg=cfg.bc,
            ground=False,
        )
        current = reduce_clause(remove_redundant_literals(head_connected(bottom)))
        current_score = self._score(current, uncovered, neg, engine)
        others = [e for e in uncovered if e != seed_ex]
        if not others:
            return current if current_score > -(10**9) else None
        for _round in range(MAX_GENERALIZE_ROUNDS):
            k = min(N_CANDIDATES, len(others))
            picks = rng.choice(len(others), size=k, replace=False)
            cand_clauses: list[Clause] = []
            seen: set = set()
            for p in picks:
                g = store.examples[others[int(p)]].compiled
                c = armg(current, g)
                if c is None or not c.relation_literals():
                    continue
                key = (c.head, c.body)
                if key not in seen:
                    seen.add(key)
                    cand_clauses.append(c)
            if not cand_clauses:
                break
            scores = self._score_many(cand_clauses, uncovered, neg, engine)
            best_i = int(np.argmax(scores))
            if scores[best_i] > current_score:
                current = cand_clauses[best_i]
                current_score = scores[best_i]
            else:
                break
        return reduce_clause(current)

    def _score(self, clause, uncovered, neg, engine) -> float:
        return self._score_many([clause], uncovered, neg, engine)[0]

    def _score_many(self, clauses, uncovered, neg, engine) -> list[float]:
        pos_masks = engine.covered_many(clauses, uncovered, positive=True)
        neg_masks = engine.covered_many(clauses, list(neg), positive=False)
        return [sum(pm) - sum(nm) for pm, nm in zip(pos_masks, neg_masks)]

    # -- prediction ----------------------------------------------------------
    def predict(
        self,
        definition: Definition,
        examples: list[tuple],
        *,
        store: GroundStore | None = None,
        engine=None,
    ) -> list[bool]:
        """True iff some clause of the definition covers the example
        (positive-coverage semantics, Def. 3.4)."""
        if store is None:
            store = self.ground_store(examples)
        if engine is None:
            engine = self.engine_factory(store)
        out = [False] * len(examples)
        for clause in definition.clauses:
            mask = engine.covered(clause, examples, positive=True)
            out = [a or b for a, b in zip(out, mask)]
        return out


def timed_fit(learner: DLearn, pos, neg) -> tuple[Definition, float]:
    """Fit and return (definition, wall seconds) — the paper's Time column."""
    t0 = time.perf_counter()
    d = learner.fit(pos, neg)
    return d, time.perf_counter() - t0
