"""Unit tests for the similarity operators (paper §5)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simjoin.similarity import (
    combined_similarity,
    length_similarity,
    smith_waterman_gotoh,
)

WORDS = st.text(
    alphabet="abcdefghij XYZ.-", min_size=0, max_size=24
)


class TestSmithWatermanGotoh:
    def test_identical(self):
        assert smith_waterman_gotoh("superbad", "superbad") == pytest.approx(1.0)

    def test_case_insensitive(self):
        assert smith_waterman_gotoh("SuperBad", "superbad") == pytest.approx(1.0)

    def test_disjoint(self):
        assert smith_waterman_gotoh("aaaa", "bbbb") == pytest.approx(0.0)

    def test_substring_scores_one(self):
        # Local alignment: the shorter string aligns perfectly inside.
        assert smith_waterman_gotoh("star wars", "star wars episode iv") == pytest.approx(1.0)

    def test_partial_overlap(self):
        s = smith_waterman_gotoh("star wars", "star trek")
        assert 0.3 < s < 1.0

    def test_empty_one_side(self):
        assert smith_waterman_gotoh("", "abc") == 0.0

    def test_empty_both(self):
        assert smith_waterman_gotoh("", "") == 1.0

    def test_gap_tolerance(self):
        # A single dropped character barely dents the score.
        assert smith_waterman_gotoh("superbad movie", "superbad movi") > 0.9

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert smith_waterman_gotoh(a, b) == pytest.approx(
            smith_waterman_gotoh(b, a)
        )

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, a, b):
        assert 0.0 <= smith_waterman_gotoh(a, b) <= 1.0 + 1e-9

    @given(WORDS)
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, a):
        assert smith_waterman_gotoh(a, a) == pytest.approx(1.0)


class TestLengthSimilarity:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("abc", "abc", 1.0), ("ab", "abcd", 0.5), ("", "", 1.0), ("", "x", 0.0)],
    )
    def test_values(self, a, b, expected):
        assert length_similarity(a, b) == pytest.approx(expected)

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        s = length_similarity(a, b)
        assert s == pytest.approx(length_similarity(b, a))
        assert 0.0 <= s <= 1.0


class TestCombined:
    def test_average(self):
        a, b = "star wars", "star wars episode iv"
        expected = 0.5 * (
            smith_waterman_gotoh(a, b) + length_similarity(a, b)
        )
        assert combined_similarity(a, b) == pytest.approx(expected)

    def test_exact_match_is_one(self):
        assert combined_similarity("amber river", "amber river") == pytest.approx(1.0)

    def test_true_pair_beats_wrong_pair(self):
        # The discrimination property the corpus generators rely on.
        true = combined_similarity("Amber River Tiger (1984)", "Amber River Tiger")
        wrong = combined_similarity("Amber River Tiger (1984)", "Golden Letter Tiger (1986)")
        assert true > wrong + 0.1
