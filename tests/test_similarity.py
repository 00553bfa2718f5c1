"""Unit tests for the similarity operators (paper §5)."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simjoin.similarity import (
    BATCH_BLOCK,
    combined_similarity,
    combined_similarity_batch,
    length_similarity,
    smith_waterman_gotoh,
)

WORDS = st.text(
    alphabet="abcdefghij XYZ.-", min_size=0, max_size=24
)
# Mixed-case Latin plus characters whose lowercase differs in length
# ("İ" lowers to two code points) or in form (final sigma), then any
# code point at all.
MIXED = st.text(
    alphabet=st.one_of(st.sampled_from("aAbBzZ İıΣΑσςß-1"), st.characters()),
    min_size=0,
    max_size=20,
)
PAIRS = st.lists(st.tuples(MIXED, MIXED), min_size=1, max_size=30)


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


class TestBatch:
    """The batched kernel returns the scalar scores exactly (``==``)."""

    @given(PAIRS)
    @settings(max_examples=80, deadline=None)
    @example([("", "")])
    @example([("", "a"), ("a", ""), ("a", "A"), ("b", "a")])
    @example([("İ", "i"), ("ΣΑΣ", "σας"), ("İstanbul", "istanbul")])
    def test_equals_scalar(self, pairs):
        assert combined_similarity_batch(pairs) == [
            combined_similarity(a, b) for a, b in pairs
        ]

    @given(MIXED, MIXED)
    @settings(max_examples=60, deadline=None)
    def test_batch_of_one(self, a, b):
        assert combined_similarity_batch([(a, b)]) == [combined_similarity(a, b)]

    @given(PAIRS)
    @settings(max_examples=10, deadline=None)
    def test_longer_than_one_block(self, pairs):
        # Repeat the drawn pairs past one block, so equal-length pairs
        # straddle block boundaries; score each distinct pair once.
        batch = (pairs * (BATCH_BLOCK // len(pairs) + 2))[: BATCH_BLOCK + 2 * len(pairs)]
        ref = {p: combined_similarity(*p) for p in set(batch)}
        assert len(batch) > BATCH_BLOCK
        assert combined_similarity_batch(batch) == [ref[p] for p in batch]

    def test_empty_batch(self):
        assert combined_similarity_batch([]) == []
