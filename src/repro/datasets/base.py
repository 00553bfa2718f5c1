"""Dataset container shared by the three synthetic corpora."""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.cfd.cfdtypes import CFD
from repro.core.dbmodel import Relation, TargetRelation
from repro.md.mdtypes import MD


@dataclass
class DirtyDataset:
    """A dirty two-database corpus plus its constraints and examples.

    ``frames`` are Spark DataFrames, one per relation (column order =
    attribute order). The domain merge of Castor-Exact and Castor-Clean
    is derived from the active ``mds``
    (:func:`~repro.baselines.castor.md_domain_map`), not stored here.
    """

    name: str
    relations: dict[str, Relation]
    frames: dict[str, DataFrame]
    mds: list[MD]
    cfds: list[CFD]
    target: TargetRelation
    pos: list[tuple]
    neg: list[tuple]
    meta: dict = field(default_factory=dict)

    def n_tuples(self) -> int:
        return sum(df.count() for df in self.frames.values())


def build_frames(
    spark: SparkSession, relations: dict[str, Relation], rows: dict[str, list[tuple]]
) -> dict[str, DataFrame]:
    """One DataFrame per relation of ``rows``, its columns named after the
    relation's attributes."""
    return {
        name: spark.createDataFrame(
            pd.DataFrame(data, columns=[a.name for a in relations[name].attrs])
        )
        for name, data in rows.items()
    }
