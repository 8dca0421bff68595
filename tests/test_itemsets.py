"""Tests for repro.mining.itemsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError, MiningError
from repro.mining.itemsets import (
    Itemset,
    ItemsetLevel,
    all_items,
    level_groups,
    match_rows,
    row_keys,
)


class TestConstruction:
    def test_items_sorted_by_attribute(self):
        itemset = Itemset.of((2, 1), (0, 3))
        assert itemset.items == ((0, 3), (2, 1))

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(MiningError):
            Itemset.of((0, 1), (0, 2))

    def test_empty_rejected(self):
        with pytest.raises(MiningError):
            Itemset([])

    def test_hashable_and_equal(self):
        a = Itemset.of((1, 0), (2, 1))
        b = Itemset.of((2, 1), (1, 0))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering(self):
        assert Itemset.of((0, 0)) < Itemset.of((0, 1)) < Itemset.of((1, 0))


class TestStructure:
    def test_length_and_views(self):
        itemset = Itemset.of((0, 3), (2, 1), (4, 0))
        assert itemset.length == 3
        assert len(itemset) == 3
        assert itemset.attributes == (0, 2, 4)
        assert itemset.values == (3, 1, 0)

    def test_contains_and_iter(self):
        itemset = Itemset.of((0, 3), (2, 1))
        assert (0, 3) in itemset
        assert (0, 4) not in itemset
        assert list(itemset) == [(0, 3), (2, 1)]


class TestAlgebra:
    def test_union(self):
        a = Itemset.of((0, 1))
        b = Itemset.of((2, 0))
        assert a.union(b) == Itemset.of((0, 1), (2, 0))

    def test_union_conflict(self):
        with pytest.raises(MiningError):
            Itemset.of((0, 1)).union(Itemset.of((0, 2)))

    def test_union_overlap_consistent(self):
        a = Itemset.of((0, 1), (1, 0))
        b = Itemset.of((1, 0), (2, 2))
        assert a.union(b).length == 3

    def test_subsets_dropping_one(self):
        itemset = Itemset.of((0, 1), (1, 0), (2, 2))
        subsets = itemset.subsets_dropping_one()
        assert len(subsets) == 3
        assert all(s.length == 2 for s in subsets)
        assert Itemset.of((1, 0), (2, 2)) in subsets

    def test_singleton_has_no_proper_subsets(self):
        assert Itemset.of((0, 1)).subsets_dropping_one() == []

    def test_is_subset_of(self):
        small = Itemset.of((0, 1))
        big = Itemset.of((0, 1), (2, 0))
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)


class TestRendering:
    def test_label(self, tiny_schema):
        itemset = Itemset.of((0, 1), (1, 2))
        assert itemset.label(tiny_schema) == "color=blue & size=l"

    def test_boolean_positions(self, survey_schema):
        # Offsets: smokes 0..2, sex 3..4, income 5..6.
        itemset = Itemset.of((0, 2), (2, 1))
        assert itemset.boolean_positions(survey_schema) == (2, 6)


class TestAllItems:
    def test_count(self, survey_schema):
        items = all_items(survey_schema)
        assert len(items) == survey_schema.n_boolean == 7

    def test_all_singletons(self, survey_schema):
        assert all(i.length == 1 for i in all_items(survey_schema))

    def test_order(self, tiny_schema):
        items = all_items(tiny_schema)
        assert items[0] == Itemset.of((0, 0))
        assert items[-1] == Itemset.of((1, 2))


class TestItemsetLevel:
    def test_items_equal_and_hash_like_constructed_itemsets(self, survey_schema):
        itemsets = [Itemset.of((0, 2), (2, 1)), Itemset.of((1, 0), (2, 0))]
        level = ItemsetLevel.from_itemsets(survey_schema, itemsets)
        assert level.rows.tolist() == [[2, 6], [3, 5]]
        assert list(level) == itemsets
        assert level[1] == itemsets[1] and level[-1] == itemsets[1]
        assert {hash(its) for its in level} == {hash(its) for its in itemsets}
        for itemset in level:
            assert all(type(x) is int for item in itemset.items for x in item)

    def test_views_and_sub_levels(self, survey_schema):
        level = ItemsetLevel.singletons(survey_schema)
        assert list(level) == all_items(survey_schema)
        assert level.attributes[:, 0].tolist() == [0, 0, 0, 1, 1, 2, 2]
        assert level.values[:, 0].tolist() == [0, 1, 2, 0, 1, 0, 1]
        assert level.subset_sizes().tolist() == [3, 3, 3, 2, 2, 2, 2]
        picked = level[np.array([True, False, False, True, False, False, True])]
        assert isinstance(picked, ItemsetLevel)
        assert list(picked) == [
            Itemset.of((0, 0)),
            Itemset.of((1, 0)),
            Itemset.of((2, 1)),
        ]
        assert list(level[5:]) == all_items(survey_schema)[5:]

    def test_read_only(self, survey_schema):
        level = ItemsetLevel.singletons(survey_schema)
        with pytest.raises(ValueError):
            level.rows[0, 0] = 3

    def test_from_itemsets_validates(self, survey_schema):
        with pytest.raises(DataError, match=r"item \(1, 2\) out of domain"):
            ItemsetLevel.from_itemsets(
                survey_schema, [Itemset.of((0, 0)), Itemset.of((1, 2))]
            )
        with pytest.raises(DataError):
            ItemsetLevel.from_itemsets(survey_schema, [Itemset.of((3, 0))])
        with pytest.raises(MiningError, match="lengths"):
            ItemsetLevel.from_itemsets(
                survey_schema, [Itemset.of((0, 0)), Itemset.of((0, 0), (1, 1))]
            )


class TestLevelGroups:
    def test_level_is_its_own_group(self, survey_schema):
        level = ItemsetLevel.singletons(survey_schema)
        n, groups = level_groups(level, survey_schema)
        assert n == 7 and len(groups) == 1
        assert groups[0][1] is level
        assert groups[0][0].tolist() == list(range(7))

    def test_mixed_generator_scatters_back(self, survey_schema):
        itemsets = [
            Itemset.of((0, 1), (1, 0)),
            Itemset.of((2, 1)),
            Itemset.of((0, 1), (1, 0)),
            Itemset.of((0, 0)),
        ]
        n, groups = level_groups(iter(itemsets), survey_schema)
        assert n == 4
        assert [(pos.tolist(), level.length) for pos, level in groups] == [
            ([1, 3], 1),
            ([0, 2], 2),
        ]
        rebuilt = [None] * n
        for positions, level in groups:
            for position, itemset in zip(positions, level):
                rebuilt[position] = itemset
        assert rebuilt == itemsets

    def test_empty(self, survey_schema):
        assert level_groups([], survey_schema) == (0, [])
        empty = ItemsetLevel.singletons(survey_schema)[:0]
        assert level_groups(empty, survey_schema) == (0, [])


class TestRowKeys:
    @settings(max_examples=50, deadline=None)
    @given(
        base=st.integers(2, 300),
        n_columns=st.integers(1, 14),
        data=st.data(),
    )
    def test_keys_order_and_match_like_tuples(self, base, n_columns, data):
        """Exact on any width: keys sort like rows, membership like tuples."""
        cell = st.integers(0, base - 1)
        row = st.lists(cell, min_size=n_columns, max_size=n_columns)
        table = data.draw(st.lists(row, min_size=1, max_size=30))
        queries = data.draw(st.lists(row, max_size=30)) + table[:3]
        rows = np.array(table + queries, dtype=np.int64)
        keys = row_keys(rows, base).tolist()
        tuples = [tuple(r) for r in rows.tolist()]
        for a in range(len(tuples)):
            for b in range(len(tuples)):
                assert (keys[a] < keys[b]) == (tuples[a] < tuples[b])
        queries_array = np.array(queries, dtype=np.int64).reshape(-1, n_columns)
        found = match_rows(np.array(table), queries_array, base)
        for query, index in zip(queries, found.tolist()):
            assert (index >= 0) == (query in table)
            if index >= 0:
                assert table[index] == query
