"""Coverage testing (paper §4.3, Defs. 3.4 / 3.6).

Each example's ground bottom clause ``G_e`` and its repaired clauses
are precomputed once per fold (:class:`GroundStore`) — they do not
depend on the candidate clause, which is what makes coverage testing
the dominant but tractable cost, as in the paper.

For a candidate clause C with repaired clauses ``C_1..C_k``:

* **fast path** (Theorem 4.6): if C θ-subsumes G_e with repair literals
  treated per Def. 4.4, then C ⊨ G_e — covered under both semantics;
* **positive** (Def. 3.4): every repaired clause of C must subsume some
  repaired clause of G_e (Theorem 4.11 equates repairs of G_e with
  bottom clauses over repairs of I_e);
* **negative** (Def. 3.6): some repaired clause of C subsumes some
  repaired clause of G_e (Proposition 4.10).

Two engines share these semantics: a driver-local loop for unit tests
and a Spark engine that broadcasts the ground store once per fold and
fans the (clause × example) grid out as plain RDD partitions, one range
of examples per task — the same axis the paper parallelises over 16
threads.

Both sides' CFD-repaired clauses come from :func:`cfd_repairs`, capped
at :data:`CANDIDATE_MAX_REPAIRS` per candidate clause and
:data:`GROUND_MAX_REPAIRS` per ground bottom clause.
"""
from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from functools import cached_property

from pyspark.sql import SparkSession

from repro.core.clause import Clause, expand_repairs
from repro.core.subsumption import CompiledClause, Pattern, subsumes

CANDIDATE_MAX_REPAIRS = 16  # repaired clauses kept per candidate clause
GROUND_MAX_REPAIRS = 32  # repaired clauses kept per ground bottom clause


def cfd_repairs(clause: Clause, cap: int) -> list[Clause]:
    """The §4.3 expansion: the CFD-repaired clauses of ``clause``, at most
    ``cap`` of them; MD repair literals stay in place."""
    return expand_repairs(clause, max_repairs=cap, constraint_prefix="cfd:")


@dataclass
class GroundExample:
    """Ground bottom clause of one example plus its repaired clauses.

    Their compiled forms (:class:`~repro.core.subsumption.CompiledClause`)
    are built on first use and kept here. They are not pickled, so the
    Spark broadcast of a :class:`GroundStore` stays as lean as the
    clauses themselves; executors rebuild them lazily.
    """

    key: object
    ge: Clause
    repairs: list[Clause]

    @staticmethod
    def of(key: object, ge: Clause) -> "GroundExample":
        return GroundExample(key, ge, cfd_repairs(ge, GROUND_MAX_REPAIRS))

    @cached_property
    def compiled(self) -> CompiledClause:
        return CompiledClause(self.ge)

    @cached_property
    def compiled_repairs(self) -> list[CompiledClause]:
        return [self.compiled if r is self.ge else CompiledClause(r) for r in self.repairs]

    def __getstate__(self) -> dict:
        return {"key": self.key, "ge": self.ge, "repairs": self.repairs}


class GroundStore:
    """Precomputed ground bottom clauses keyed by example id."""

    def __init__(self, examples: dict[object, GroundExample]):
        self.examples = examples


def _layout(clause: Clause, repairs: list[Clause]) -> tuple[Pattern, list[Pattern]]:
    """``clause`` and its repaired clauses laid out as Patterns. An
    unexpanded clause (``repairs == [clause]``) keeps its one Pattern, by
    which :func:`clause_covers` knows it has no CFD repair group."""
    pattern = Pattern(clause)
    return pattern, [pattern if r is clause else Pattern(r) for r in repairs]


def clause_covers(
    clause: Clause | Pattern,
    clause_repairs: list[Clause] | list[Pattern],
    gx: GroundExample,
    *,
    positive: bool,
) -> bool:
    """Defs. 3.4 / 3.6 against one precomputed ground example.

    §4.3 procedure: θ-subsumption with repair literals in place is the
    fast path (sound, Thm 4.6) and — when only MD repairs are involved —
    also complete (Thm 4.9), so it decides the test outright. Only when
    either side carries CFD repairs do we enumerate the CFD-repaired
    variants (MD repair literals stay in place on both sides).
    ``clause_repairs`` is ``[clause]`` itself exactly when the clause has
    no CFD repair group (:func:`cfd_repairs`); a clause whose expansion
    the cap cut to one variant still enumerates it.
    """
    if subsumes(clause, gx.compiled):
        return True
    if clause_repairs == [clause] and gx.repairs == [gx.ge]:
        return False  # MD-only on both sides: Thm 4.9 makes this exact
    repairs = gx.compiled_repairs
    if positive:
        return all(
            any(subsumes(cr, gr) for gr in repairs) for cr in clause_repairs
        )
    return any(
        any(subsumes(cr, gr) for gr in repairs) for cr in clause_repairs
    )


class LocalCoverageEngine:
    """Driver-local coverage over a :class:`GroundStore`.

    Results are memoised per (clause, example, semantics): the covering
    loop and ARMG re-score the incumbent clause many times. A clause and
    its repaired clauses are laid out as :class:`Pattern` once per call.
    """

    def __init__(
        self, store: GroundStore, *, max_repairs: int = CANDIDATE_MAX_REPAIRS
    ):
        self.store = store
        self.max_repairs = max_repairs
        self._cache: dict[tuple, bool] = {}

    def unpersist(self) -> None:
        """Nothing to release: the store never leaves the driver."""

    def covered(
        self, clause: Clause, keys: list[object], *, positive: bool
    ) -> list[bool]:
        pattern: Pattern | None = None
        reps: list[Pattern] = []
        out = []
        for k in keys:
            ck = (clause, k, positive)
            hit = self._cache.get(ck)
            if hit is None:
                if pattern is None:
                    pattern, reps = _layout(clause, cfd_repairs(clause, self.max_repairs))
                hit = clause_covers(
                    pattern, reps, self.store.examples[k], positive=positive
                )
                self._cache[ck] = hit
            out.append(hit)
        return out

    def covered_many(
        self, clauses: list[Clause], keys: list[object], *, positive: bool
    ) -> list[list[bool]]:
        return [self.covered(c, keys, positive=positive) for c in clauses]


_BROADCASTS = itertools.count()  # driver-side tokens, one per store broadcast
_WORKER_STORE: dict[int, GroundStore] = {}


def _executor_store(token: int, bc) -> GroundStore:
    """The ground store broadcast as ``bc`` under the driver-issued
    ``token``, unpickled once per Python worker and kept there.

    A reused worker then unpickles the store once per engine, not once
    per task, and keeps the store's lazily compiled clauses across tasks
    and dispatches. Only the latest token is kept. The cache lives behind
    a module-level function because cloudpickle copies the globals of a
    nested closure by value: a dict named by the task closure itself
    would be a fresh empty copy in every task.
    """
    store = _WORKER_STORE.get(token)
    if store is None:
        _WORKER_STORE.clear()
        store = _WORKER_STORE[token] = pickle.loads(bc.value)
    return store


class SparkCoverageEngine:
    """Coverage fanned out over examples as plain RDD partitions.

    The ground store is pickled and broadcast on the first dispatch, and
    only then; each call ships only the candidate clauses (small) in the
    task closure. The missing (clause × example) pairs are parallelised
    in key order, so each task scores one range of examples, in one
    stage with no shuffle. Grids smaller than ``min_rows_for_spark`` are
    answered locally. Both paths keep at most ``max_repairs`` repaired
    clauses per candidate clause.
    """

    def __init__(
        self,
        spark: SparkSession,
        store: GroundStore,
        *,
        min_rows_for_spark: int = 600,
        max_repairs: int = CANDIDATE_MAX_REPAIRS,
    ):
        self.spark = spark
        self.store = store
        self.min_rows_for_spark = min_rows_for_spark
        self._local = LocalCoverageEngine(store, max_repairs=max_repairs)
        self._cache: dict[tuple, bool] = self._local._cache  # shared memo
        self._bc = None  # the store's broadcast, made on the first dispatch
        self._token = -1  # its token for the workers' store cache

    def unpersist(self) -> None:
        if self._bc is not None:
            self._bc.unpersist()

    def covered(
        self, clause: Clause, keys: list[object], *, positive: bool
    ) -> list[bool]:
        return self.covered_many([clause], keys, positive=positive)[0]

    def covered_many(
        self, clauses: list[Clause], keys: list[object], *, positive: bool
    ) -> list[list[bool]]:
        # Serve memoised pairs locally; fan out only the missing grid,
        # key by key so that each task gets one range of examples.
        pending = [
            (ci, ki)
            for ki, k in enumerate(keys)
            for ci, c in enumerate(clauses)
            if (c, k, positive) not in self._cache
        ]
        if len(pending) < self.min_rows_for_spark:
            return self._local.covered_many(clauses, keys, positive=positive)
        sc = self.spark.sparkContext
        if self._bc is None:
            self._bc = sc.broadcast(pickle.dumps(self.store))
            self._token = next(_BROADCASTS)
        payload = [(c, cfd_repairs(c, self._local.max_repairs)) for c in clauses]
        bc, token = self._bc, self._token  # not self: the session cannot be pickled

        def run(rows):
            store = _executor_store(token, bc)
            cls = [_layout(c, reps) for c, reps in payload]
            for ci, ki in rows:
                clause, reps = cls[ci]
                gx = store.examples[keys[ki]]
                yield ci, ki, clause_covers(clause, reps, gx, positive=positive)

        n_parts = max(1, min(sc.defaultParallelism, len(pending)))
        for ci, ki, hit in sc.parallelize(pending, n_parts).mapPartitions(run).collect():
            self._cache[(clauses[ci], keys[ki], positive)] = hit
        return [
            [self._cache[(c, k, positive)] for k in keys] for c in clauses
        ]
