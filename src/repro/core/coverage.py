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
fans the (clause × example) grid out with ``mapInPandas`` — the same
axis the paper parallelises over 16 threads.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import cached_property

from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.core.clause import Clause, expand_repairs
from repro.core.subsumption import CompiledClause, Pattern, subsumes


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

    @staticmethod
    def build(
        keys_and_clauses: list[tuple[object, Clause]], *, max_repairs: int = 32
    ) -> "GroundStore":
        out = {}
        for key, ge in keys_and_clauses:
            out[key] = GroundExample(
                key=key,
                ge=ge,
                repairs=expand_repairs(
                    ge, max_repairs=max_repairs, constraint_prefix="cfd:"
                ),
            )
        return GroundStore(out)

    def keys(self) -> list[object]:
        return list(self.examples)


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
    """
    if subsumes(clause, gx.compiled):
        return True
    if len(clause_repairs) == 1 and len(gx.repairs) == 1:
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

    def __init__(self, store: GroundStore, *, max_repairs: int = 16):
        self.store = store
        self.max_repairs = max_repairs
        self._cache: dict[tuple, bool] = {}

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
                    pattern = Pattern(clause)
                    reps = [
                        Pattern(r)
                        for r in expand_repairs(
                            clause,
                            max_repairs=self.max_repairs,
                            constraint_prefix="cfd:",
                        )
                    ]
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


_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("clause_idx", T.IntegerType()),
        T.StructField("key_idx", T.IntegerType()),
        T.StructField("covered", T.BooleanType()),
    ]
)


class SparkCoverageEngine:
    """Coverage fanned out over examples with ``mapInPandas``.

    The ground store is pickled and broadcast once; each call ships only
    the candidate clauses (small) in the task closure. The (clause ×
    example) grid is a DataFrame repartitioned across cores.
    """

    def __init__(
        self,
        spark: SparkSession,
        store: GroundStore,
        *,
        max_repairs: int = 16,
        min_rows_for_spark: int = 600,
    ):
        self.spark = spark
        self.store = store
        self.max_repairs = max_repairs
        self.min_rows_for_spark = min_rows_for_spark
        self._local = LocalCoverageEngine(store, max_repairs=max_repairs)
        self._cache: dict[tuple, bool] = self._local._cache  # shared memo
        self._bc = spark.sparkContext.broadcast(pickle.dumps(store))

    def unpersist(self) -> None:
        self._bc.unpersist()

    def covered(
        self, clause: Clause, keys: list[object], *, positive: bool
    ) -> list[bool]:
        return self.covered_many([clause], keys, positive=positive)[0]

    def covered_many(
        self, clauses: list[Clause], keys: list[object], *, positive: bool
    ) -> list[list[bool]]:
        # Serve memoised pairs locally; fan out only the missing grid.
        pending = [
            (ci, ki)
            for ci, c in enumerate(clauses)
            for ki, k in enumerate(keys)
            if (c, k, positive) not in self._cache
        ]
        if len(pending) < self.min_rows_for_spark:
            return self._local.covered_many(clauses, keys, positive=positive)
        payload = pickle.dumps(
            [
                (
                    c,
                    expand_repairs(
                        c, max_repairs=self.max_repairs, constraint_prefix="cfd:"
                    ),
                )
                for c in clauses
            ]
        )
        bc_store = self._bc
        pos = positive

        def run(iterator):
            import pandas as pd

            local_store: GroundStore = pickle.loads(bc_store.value)
            cls = [
                (Pattern(c), [Pattern(r) for r in reps])
                for c, reps in pickle.loads(payload)
            ]
            key_list = pickle.loads(keys_payload)
            for pdf in iterator:
                rows = []
                for ci, ki in zip(pdf["clause_idx"], pdf["key_idx"]):
                    clause, reps = cls[ci]
                    gx = local_store.examples[key_list[ki]]
                    rows.append(
                        (
                            int(ci),
                            int(ki),
                            clause_covers(clause, reps, gx, positive=pos),
                        )
                    )
                yield pd.DataFrame(
                    rows, columns=["clause_idx", "key_idx", "covered"]
                )

        keys_payload = pickle.dumps(keys)
        grid = self.spark.createDataFrame(
            pending, schema="clause_idx INT, key_idx INT"
        )
        n_parts = max(
            1, min(self.spark.sparkContext.defaultParallelism, len(pending))
        )
        result = (
            grid.repartition(n_parts)
            .mapInPandas(run, schema=_RESULT_SCHEMA)
            .collect()
        )
        for row in result:
            self._cache[(clauses[row.clause_idx], keys[row.key_idx], positive)] = (
                row.covered
            )
        return [
            [self._cache[(c, k, positive)] for k in keys] for c in clauses
        ]
