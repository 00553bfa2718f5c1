"""MD engine tests (paper §2.2, Definition 2.2, Example 2.3)."""
import pandas as pd
import pytest

from repro.core.bottom_clause import merged_const
from repro.md.enforce import (
    best_match_mapping,
    stable_instance,
    unify_values,
)
from repro.md.mdtypes import MD, SimTable

MD_T = MD("m", "movies", "title", "highBudgetMovies", "title")


def is_stable(
    tuples_left: list[tuple],
    tuples_right: list[tuple],
    *,
    left_idx: int,
    right_idx: int,
    sim_pairs: set[tuple[object, object]],
) -> bool:
    """No remaining applicable MD application (Definition 2.2 cond. 1)."""
    for t1 in tuples_left:
        for t2 in tuples_right:
            a, b = t1[left_idx], t2[right_idx]
            if a != b and (a, b) in sim_pairs:
                return False
    return True


class TestSimTable:
    def test_topk_and_ordering(self):
        pairs = [("a", "x", 0.9), ("a", "y", 0.95), ("a", "z", 0.8)]
        st = SimTable.from_pairs(MD_T, pairs, k=2)
        assert [m[0] for m in st.left_to_right["a"]] == ["y", "x"]

    def test_reverse_direction(self):
        pairs = [("a", "x", 0.9), ("b", "x", 0.7)]
        st = SimTable.from_pairs(MD_T, pairs, k=5)
        assert [m[0] for m in st.right_to_left["x"]] == ["a", "b"]

    def test_tie_break_deterministic(self):
        pairs = [("a", "x", 0.9), ("a", "w", 0.9)]
        st = SimTable.from_pairs(MD_T, pairs, k=1)
        assert st.left_to_right["a"][0][0] == "w"  # lexicographic on ties


class TestStableInstance:
    """Example 2.3: 'Star Wars' matches both episode titles; each
    enforcement order yields a distinct stable instance."""

    EP4 = "Star Wars: Episode IV - 1977"
    EP3 = "Star Wars: Episode III - 2005"
    SW = "Star Wars"

    def _relations(self):
        movies = [("10", self.EP4), ("40", self.EP3)]
        hbm = [(self.SW,)]
        sim = {(self.EP4, self.SW), (self.EP3, self.SW)}
        return movies, hbm, sim

    def test_order_one(self):
        movies, hbm, sim = self._relations()
        m2, h2 = stable_instance(
            movies, hbm, left_idx=1, right_idx=0, sim_pairs=sim,
            order=[(0, 0), (1, 0)],
        )
        assert h2[0][0] == merged_const(self.EP4, self.SW).value
        assert m2[0][1] == h2[0][0]
        assert is_stable(m2, h2, left_idx=1, right_idx=0, sim_pairs=sim)

    def test_order_two_gives_distinct_instance(self):
        movies, hbm, sim = self._relations()
        m2, h2 = stable_instance(
            movies, hbm, left_idx=1, right_idx=0, sim_pairs=sim,
            order=[(1, 0), (0, 0)],
        )
        assert h2[0][0] == merged_const(self.EP3, self.SW).value
        assert is_stable(m2, h2, left_idx=1, right_idx=0, sim_pairs=sim)

    def test_instances_differ_by_order(self):
        movies, hbm, sim = self._relations()
        _, h_a = stable_instance(
            movies, hbm, left_idx=1, right_idx=0, sim_pairs=sim, order=[(0, 0)]
        )
        _, h_b = stable_instance(
            movies, hbm, left_idx=1, right_idx=0, sim_pairs=sim, order=[(1, 0)]
        )
        assert h_a != h_b

    def test_not_stable_before_enforcement(self):
        movies, hbm, sim = self._relations()
        assert not is_stable(movies, hbm, left_idx=1, right_idx=0, sim_pairs=sim)

    def test_equal_values_need_no_enforcement(self):
        movies = [("1", "Same")]
        hbm = [("Same",)]
        assert is_stable(movies, hbm, left_idx=1, right_idx=0, sim_pairs=set())


class TestCleanUnification:
    def test_best_match_mapping_right_side(self):
        st = SimTable.from_pairs(
            MD_T, [("Left A", "dirty a", 0.9), ("Left B", "dirty a", 0.7)], k=5
        )
        mapping = best_match_mapping(st)
        assert mapping == {"dirty a": "Left A"}

    def test_unify_values_spark(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": ["1", "2"], "title": ["dirty a", "clean b"]})
        )
        out = unify_values(df, attr="title", mapping={"dirty a": "Left A"})
        rows = {r["id"]: r["title"] for r in out.collect()}
        assert rows == {"1": "Left A", "2": "clean b"}

    def test_unify_empty_mapping_identity(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"id": ["1"], "title": ["t"]}))
        assert unify_values(df, attr="title", mapping={}) is df
