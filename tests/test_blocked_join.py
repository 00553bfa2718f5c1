"""Blocked similarity join tests (Spark pipeline, paper §5): Spark blocks
and scores the candidate pairs; ``SimTable.from_pairs`` applies the MD's
threshold and the top-k cut."""
from dataclasses import replace

import pandas as pd
import pytest

from repro.baselines.castor import compute_sim_tables
from repro.datasets import papers
from repro.md.mdtypes import MD, SimTable
from repro.oracle import assert_equivalent
from repro.simjoin.blocked_join import candidate_pairs, scored_pairs
from repro.simjoin.similarity import combined_similarity

LEFT = [
    "Amber River Tiger (1984)",
    "Golden Letter Harbor (1999)",
    "Silent Canyon (2001)",
]
RIGHT = [
    "Amber River Tiger",
    "amber river tiger (1984)",
    "Golden Let. Harbor",
    "Silent Canyon (2001)",
    "Unrelated Zebra Quux",
]


def title_md(threshold: float) -> MD:
    return MD("t", "l", "title", "r", "title", threshold)


@pytest.fixture()
def frames(spark):
    l = spark.createDataFrame(pd.DataFrame({"title": LEFT}))
    r = spark.createDataFrame(pd.DataFrame({"title": RIGHT}))
    return l, r


@pytest.fixture()
def scored(frames):
    """The scored candidate pairs of the one title MD."""
    l, r = frames
    return scored_pairs([title_md(0.0)], {"l": l, "r": r})


def sim_table(scored, *, k: int, threshold: float) -> SimTable:
    pairs = [(p.left_value, p.right_value, p.sim) for p in scored.collect()]
    return SimTable.from_pairs(title_md(threshold), pairs, k=k)


class TestCandidatePairs:
    def test_shares_word_blocking(self, frames):
        l, r = frames
        pairs = {
            (p.left_value, p.right_value)
            for p in candidate_pairs(l, r, left_col="title", right_col="title").collect()
        }
        assert ("Amber River Tiger (1984)", "Amber River Tiger") in pairs
        assert all(rv != "Unrelated Zebra Quux" for _, rv in pairs)

    def test_case_insensitive_blocking(self, frames):
        l, r = frames
        pairs = {
            (p.left_value, p.right_value)
            for p in candidate_pairs(l, r, left_col="title", right_col="title").collect()
        }
        assert ("Amber River Tiger (1984)", "amber river tiger (1984)") in pairs


class TestTopkSimilar:
    def test_scores_match_scalar_function(self, scored):
        rows = scored.collect()
        assert rows and {row.md for row in rows} == {"t"}
        for row in rows:
            assert row.sim == combined_similarity(row.left_value, row.right_value)

    def test_k_limits_matches(self, scored):
        st = sim_table(scored, k=1, threshold=0.0)
        assert st.left_to_right
        assert all(len(m) <= 1 for m in st.left_to_right.values())
        assert all(len(m) <= 1 for m in st.right_to_left.values())

    def test_threshold_prunes(self, scored):
        # scored_pairs keeps every candidate; from_pairs drops the weak ones.
        assert any(row.sim < 0.9 for row in scored.collect())
        st = sim_table(scored, k=5, threshold=0.9)
        for table in (st.left_to_right, st.right_to_left):
            assert all(s >= 0.9 for matches in table.values() for _, s in matches)

    def test_true_match_ranks_first(self, scored):
        st = sim_table(scored, k=1, threshold=0.3)
        best = {lv: m[0][0] for lv, m in st.left_to_right.items()}
        assert best["Silent Canyon (2001)"] == "Silent Canyon (2001)"
        assert best["Amber River Tiger (1984)"] == "amber river tiger (1984)"

    def test_topk_window_oracle(self, scored, spark):
        """``from_pairs``' left-to-right cut agrees with a DuckDB window
        query over the same scored pairs, threshold applied."""
        st = sim_table(scored, k=2, threshold=0.5)
        got = spark.createDataFrame(
            pd.DataFrame(
                [(lv, rv) for lv, m in st.left_to_right.items() for rv, _ in m],
                columns=["left_value", "right_value"],
            )
        )
        assert_equivalent(
            got,
            """
            SELECT left_value, right_value FROM (
              SELECT left_value, right_value,
                     ROW_NUMBER() OVER (
                       PARTITION BY left_value
                       ORDER BY sim DESC, right_value ASC) AS rk
              FROM scored
              WHERE sim >= 0.5)
            WHERE rk <= 2
            """,
            scored=scored,
        )

    def test_exact_value_scores_one(self, spark):
        l = spark.createDataFrame(pd.DataFrame({"v": ["same title"]}))
        r = spark.createDataFrame(pd.DataFrame({"v": ["same title", "other"]}))
        md = MD("v", "l", "v", "r", "v", 0.5)
        pairs = [
            (p.left_value, p.right_value, p.sim)
            for p in scored_pairs([md], {"l": l, "r": r}).collect()
        ]
        rv, s = SimTable.from_pairs(md, pairs, k=1).left_to_right["same title"][0]
        assert rv == "same title"
        assert s == pytest.approx(1.0)

    def test_reverse_map_only_from_kept_pairs(self):
        """``right_to_left`` is built from the pairs that survive the
        threshold and the left-to-right cut, not from every pair."""
        pairs = [("a", "x", 0.9), ("a", "y", 0.8), ("b", "y", 0.7), ("c", "y", 0.4)]
        st = SimTable.from_pairs(title_md(0.5), pairs, k=1)
        assert st.left_to_right == {"a": [("x", 0.9)], "b": [("y", 0.7)]}
        assert st.right_to_left == {"x": [("a", 0.9)], "y": [("b", 0.7)]}


class TestComputeSimTables:
    """Both MDs of the DBLP+Scholar corpus (title and venue) in one call."""

    @pytest.fixture(scope="class")
    def paper_ds(self, spark):
        return papers.generate(spark, n_papers=120, n_pos=20, n_neg=40, seed=0)

    def test_equals_per_md_tables(self, paper_ds):
        both = compute_sim_tables(paper_ds, k=3)
        assert set(both) == {md.name for md in paper_ds.mds}
        for md in paper_ds.mds:
            one = compute_sim_tables(replace(paper_ds, mds=[md]), k=3)[md.name]
            assert both[md.name].left_to_right == one.left_to_right
            assert both[md.name].right_to_left == one.right_to_left

    def test_one_job_set_for_all_mds(self, spark, paper_ds):
        """Two MDs in one call run fewer Spark jobs than one call per MD."""
        sc = spark.sparkContext

        def jobs(group: str, ds) -> int:
            sc.setJobGroup(group, "compute_sim_tables")
            try:
                compute_sim_tables(ds, k=3)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            return len(sc.statusTracker().getJobIdsForGroup(group))

        together = jobs("sim-all-mds", paper_ds)
        apart = sum(
            jobs(f"sim-md-{md.name}", replace(paper_ds, mds=[md]))
            for md in paper_ds.mds
        )
        assert together < apart

    def test_no_md_no_table(self, paper_ds):
        assert compute_sim_tables(replace(paper_ds, mds=[]), k=3) == {}
