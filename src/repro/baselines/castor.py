"""The paper's systems as configurations of one learning engine (§6.1.3).

* **Castor-NoMD** — no MD information: the two databases' MD attributes
  keep disjoint domain tags, so no cross-database join path exists.
* **Castor-Exact** — MD attribute pairs become exact-joinable (domain
  merge) but no similarity matching.
* **Castor-Clean** — entity resolution first: every value on the dirty
  side is replaced by its top-1 most similar counterpart (the same
  similarity operator DLearn uses), then learning over the unified
  database with exact joins.
* **DLearn** — similarity literals + MD repair literals, top ``k_m``
  matches per value.
* **DLearn-Repaired** — CFD violations minimally repaired at the data
  level (seeded arbitrary choice per violating group), then DLearn
  (MDs only).
* **DLearn-CFD** — DLearn with CFD repair literals in the clauses.

``build_learner`` runs the Spark side (similarity join precompute,
cleaning/repair pipelines, LocalDB collection) and returns a ready
:class:`~repro.core.dlearn.DLearn`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.cfd.repair import repair_all
from repro.core.bottom_clause import BottomClauseConfig
from repro.core.dbmodel import LocalDB, local_db_from_spark
from repro.core.dlearn import DLearn, DLearnConfig
from repro.datasets.base import DirtyDataset
from repro.md.enforce import best_match_mapping, unify_values
from repro.md.mdtypes import SimTable
from repro.simjoin.blocked_join import scored_pairs

NOMD = "nomd"
EXACT = "exact"
CLEAN = "clean"
DLEARN = "dlearn"
MODES = (NOMD, EXACT, CLEAN, DLEARN)
SIM_K_MAX = 10  # similarity tables are computed once at this k (or k_m if larger)


@dataclass
class SystemConfig:
    """One experimental system: a mode plus the paper's knobs."""

    mode: str = DLEARN
    k_m: int = 5
    d: int = 4
    use_cfd_repairs: bool = False  # DLearn-CFD
    repair_data: bool = False  # DLearn-Repaired (and any *-over-repaired)
    min_pos: int = 2
    seed: int = 7


def md_domain_map(ds: DirtyDataset) -> dict[str, str]:
    """Merge each *active* MD's attribute-pair domains (right → left).

    Castor-Exact/Clean may only join the attribute pairs of the MDs the
    configuration actually declares — with one MD, only titles merge;
    the three-MD movie config additionally merges cast and writer names
    (which is why Castor-Exact improves so much there, as in Table 4).
    """
    out: dict[str, str] = {}
    for md in ds.mds:
        left_dom = next(
            a.domain for a in ds.relations[md.left_rel].attrs if a.name == md.left_attr
        )
        right_dom = next(
            a.domain
            for a in ds.relations[md.right_rel].attrs
            if a.name == md.right_attr
        )
        out[right_dom] = left_dom
    return out


def compute_sim_tables(ds: DirtyDataset, *, k: int) -> dict[str, SimTable]:
    """Every MD's similar-pair table, from one scored Spark job and one
    collect."""
    if not ds.mds:
        return {}
    pairs: dict[str, list] = {md.name: [] for md in ds.mds}
    for r in scored_pairs(ds.mds, ds.frames).collect():
        pairs[r.md].append((r.left_value, r.right_value, r.sim))
    return {md.name: SimTable.from_pairs(md, pairs[md.name], k=k) for md in ds.mds}


def build_learner(
    spark: SparkSession,
    ds: DirtyDataset,
    cfg: SystemConfig,
    *,
    sim_tables: dict[str, SimTable] | None = None,
    engine_factory=None,
) -> DLearn:
    """Assemble the learner for one system over one dataset.

    DLearn gets ``sim_tables`` as computed: the k_m cut is Algorithm 2's
    alone (``bottom_clause.gather`` reads the first ``cfg.k_m`` matches of
    each value). Tables computed at any k ≥ ``cfg.k_m`` thus give the
    clauses of tables computed at ``cfg.k_m``, unless a right value's list
    keeps a left value that ranks it below its own first ``cfg.k_m``
    matches (a table computed at ``cfg.k_m`` lacks that pair).
    """
    if cfg.mode not in MODES:
        raise ValueError(f"unknown mode {cfg.mode}")
    frames = dict(ds.frames)
    if cfg.repair_data and ds.cfds:
        frames = repair_all(frames, ds.cfds, seed=cfg.seed)
    needs_sim = cfg.mode in (CLEAN, DLEARN)
    if needs_sim and sim_tables is None:
        sim_tables = compute_sim_tables(ds, k=max(SIM_K_MAX, cfg.k_m))
    mds: list = []
    tables: dict[str, SimTable] = {}
    domain_map: dict[str, str] = {}
    if cfg.mode == EXACT:
        domain_map = md_domain_map(ds)
    elif cfg.mode == CLEAN:
        # Rewrite the dirty (right) side to its top-1 left match, then
        # join exactly over the merged domains.
        assert sim_tables is not None
        for md in ds.mds:
            mapping = best_match_mapping(sim_tables[md.name])
            frames[md.right_rel] = unify_values(
                frames[md.right_rel], attr=md.right_attr, mapping=mapping
            )
        domain_map = md_domain_map(ds)
    elif cfg.mode == DLEARN:
        assert sim_tables is not None
        mds, tables = list(ds.mds), sim_tables
    db: LocalDB = local_db_from_spark(ds.relations, frames)
    bc = BottomClauseConfig(d=cfg.d, k_m=cfg.k_m, seed=cfg.seed, domain_map=domain_map)
    learn_cfg = DLearnConfig(bc=bc, min_pos=cfg.min_pos, seed=cfg.seed)
    return DLearn(
        db,
        ds.target,
        mds=mds,
        sim_tables=tables,
        cfds=list(ds.cfds) if cfg.use_cfd_repairs else [],
        config=learn_cfg,
        engine_factory=engine_factory,
    )
