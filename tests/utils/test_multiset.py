"""Unit and property tests for the multiset primitives."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.multiset import (
    all_multisets,
    canonical,
    is_submultiset,
    multiset_count,
    multiset_difference,
    replace_one,
    submultiset_closure,
)

items = st.lists(st.sampled_from("ABCD"), max_size=6)


class TestCanonical:
    def test_sorts(self):
        assert canonical("CAB") == ("A", "B", "C")

    @given(items)
    def test_idempotent(self, values):
        once = canonical(values)
        assert canonical(once) == once


class TestSubmultiset:
    def test_respects_multiplicity(self):
        assert is_submultiset(Counter("AA"), Counter("AAB"))
        assert not is_submultiset(Counter("AAA"), Counter("AAB"))

    @given(items, items)
    def test_difference_inverts(self, big_list, small_list):
        big = Counter(big_list + small_list)
        small = Counter(small_list)
        difference = multiset_difference(big, small)
        assert difference + small == big

    def test_difference_rejects_non_subset(self):
        with pytest.raises(ValueError):
            multiset_difference(Counter("A"), Counter("B"))


class TestReplaceOne:
    def test_replaces_exactly_one(self):
        assert replace_one(("A", "A", "B"), "A", "C") == ("A", "B", "C")

    def test_missing_raises(self):
        with pytest.raises(ValueError):
            replace_one(("A",), "B", "C")


class TestEnumeration:
    def test_all_multisets_count_matches_formula(self):
        for universe, size in [("AB", 3), ("ABC", 2), ("ABCD", 4)]:
            enumerated = list(all_multisets(universe, size))
            assert len(enumerated) == multiset_count(len(universe), size)
            assert len(set(enumerated)) == len(enumerated)

    def test_all_multisets_canonical(self):
        for multiset in all_multisets("CBA", 2):
            assert tuple(sorted(multiset)) == multiset

    def test_empty_universe(self):
        assert list(all_multisets("", 0)) == [()]
        assert list(all_multisets("", 2)) == []

    @given(st.lists(items.map(canonical), max_size=3))
    def test_submultiset_closure_is_sound_and_complete(self, multisets):
        # Brute force: every subset of positions of every sorted multiset
        # (a subsequence of a sorted tuple is itself sorted).
        expected = {
            tuple(items[index] for index in range(len(items)) if mask >> index & 1)
            for items in multisets
            for mask in range(1 << len(items))
        }
        assert submultiset_closure(multisets) == expected
