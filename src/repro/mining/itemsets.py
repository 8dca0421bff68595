"""Categorical itemsets.

In the paper's setting an *item* is an (attribute, category) pair and an
*itemset* assigns categories to a subset ``Cs`` of the attributes (a
record supports it when it matches on every assigned attribute).  Two
items on the same attribute can never co-occur in a record, so itemsets
contain at most one item per attribute -- the candidate-generation rules
in :mod:`repro.mining.apriori` rely on this.

Apriori works a level at a time, and so does everything downstream of
it, so a level has an array form too.  Item ``(attr, value)`` has the
*item row* ``boolean_offsets[attr] + value`` -- its column in the
booleanized record and its row in the packed transaction bitmaps -- and
:class:`ItemsetLevel` holds ``n`` same-length itemsets as an ``(n, k)``
``int64`` array of item rows, ascending within each itemset.  Candidate
generation, support counting and reconstruction all run on these rows;
an :class:`Itemset` is built only where a caller looks at one (the
frequent itemsets of a mining result, API boundaries).

:func:`level_groups` splits any iterable of itemsets into per-length
levels, which is how every built-in support source accepts lists,
generators, duplicates and mixed lengths alike; :func:`row_keys` and
:func:`match_rows` are the exact row-membership primitives the join,
the prune and the bitmap level cache share.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import DataError, MiningError


@dataclass(frozen=True, order=True)
class Itemset:
    """An immutable itemset: ``((attr, value), ...)`` sorted by attribute.

    Examples
    --------
    >>> its = Itemset.of((2, 1), (0, 3))
    >>> its.items
    ((0, 3), (2, 1))
    >>> its.length
    2
    """

    items: tuple[tuple[int, int], ...]

    def __init__(self, items):
        items = tuple(sorted((int(a), int(v)) for a, v in items))
        if not items:
            raise MiningError("an itemset needs at least one item")
        attrs = [a for a, _ in items]
        if len(set(attrs)) != len(attrs):
            raise MiningError(
                f"itemset {items} assigns one attribute more than once"
            )
        object.__setattr__(self, "items", items)

    @classmethod
    def of(cls, *items) -> "Itemset":
        """Convenience variadic constructor."""
        return cls(items)

    @classmethod
    def _trusted(cls, items: tuple) -> "Itemset":
        """Wrap ``items`` that are already sorted, valid Python-int pairs."""
        itemset = object.__new__(cls)
        object.__setattr__(itemset, "items", items)
        return itemset

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of items (the paper's "itemset length")."""
        return len(self.items)

    @property
    def attributes(self) -> tuple[int, ...]:
        """Attribute positions, ascending (the subset ``Cs``)."""
        return tuple(a for a, _ in self.items)

    @property
    def values(self) -> tuple[int, ...]:
        """Category indices aligned with :attr:`attributes`."""
        return tuple(v for _, v in self.items)

    def __contains__(self, item) -> bool:
        return tuple(item) in self.items

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.items)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def union(self, other: "Itemset") -> "Itemset":
        """Union of two itemsets (raises if attributes conflict)."""
        merged = dict(self.items)
        for attr, value in other.items:
            if merged.get(attr, value) != value:
                raise MiningError(
                    f"cannot union itemsets disagreeing on attribute {attr}"
                )
            merged[attr] = value
        return Itemset(merged.items())

    def subsets_dropping_one(self) -> list["Itemset"]:
        """All ``(length-1)``-subsets (for Apriori pruning)."""
        if self.length == 1:
            return []
        return [
            Itemset(self.items[:i] + self.items[i + 1 :]) for i in range(self.length)
        ]

    def is_subset_of(self, other: "Itemset") -> bool:
        """Whether every item also appears in ``other``."""
        return set(self.items) <= set(other.items)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def label(self, schema: Schema) -> str:
        """Readable rendering like ``sex=Female & race=White``."""
        parts = []
        for attr, value in self.items:
            attribute = schema[attr]
            parts.append(f"{attribute.name}={attribute.categories[value]}")
        return " & ".join(parts)

    def boolean_positions(self, schema: Schema) -> tuple[int, ...]:
        """Positions of this itemset's items in the booleanized row.

        Used by the MASK and C&P estimators, which operate on the
        one-hot representation.
        """
        offsets = schema.boolean_offsets()
        return tuple(offsets[attr] + value for attr, value in self.items)


def all_items(schema: Schema) -> list[Itemset]:
    """Every 1-itemset of a schema, in (attribute, value) order."""
    return list(ItemsetLevel.singletons(schema))


# ----------------------------------------------------------------------
# array-encoded levels
# ----------------------------------------------------------------------
_INT64_MAX = np.iinfo(np.int64).max


@lru_cache(maxsize=32)
def _item_tables(schema: Schema) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, cardinalities, attribute of each item row)`` arrays."""
    cards = np.asarray(schema.cardinalities, dtype=np.int64)
    offsets = np.asarray(schema.boolean_offsets(), dtype=np.int64)
    item_attr = np.repeat(np.arange(cards.size, dtype=np.int64), cards)
    for table in (offsets, cards, item_attr):
        table.setflags(write=False)
    return offsets, cards, item_attr


def row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Exact, order-preserving ``int64`` keys of ``(n, k)`` rows in ``[0, base)``.

    Rows are read as base-``base`` numbers, most significant column
    first, so keys sort like the rows do lexicographically.  Whenever
    the next column would overflow ``int64`` the partial keys are first
    replaced by their dense ranks, which keeps keys exact on any width
    -- but only comparable *within* one call: rows to be compared must
    be keyed together.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise DataError(f"rows must be 2-D (n, k), got shape {rows.shape}")
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    keys = rows[:, 0].copy()
    limit = (_INT64_MAX - base) // base
    for column in range(1, rows.shape[1]):
        if keys.size and keys.max() > limit:
            keys = np.unique(keys, return_inverse=True)[1].astype(np.int64)
        keys = keys * base + rows[:, column]
    return keys


def match_rows(table: np.ndarray, queries: np.ndarray, base: int) -> np.ndarray:
    """Index of each query row in ``table``, ``-1`` where it is absent.

    Both are ``(n, k)`` arrays of values in ``[0, base)``; exact on any
    width (see :func:`row_keys`).  With duplicate table rows any one of
    their indices is returned.
    """
    table = np.asarray(table, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    found = np.full(queries.shape[0], -1, dtype=np.int64)
    if not table.shape[0] or not queries.shape[0]:
        return found
    keys = row_keys(np.concatenate([table, queries]), base)
    table_keys, query_keys = keys[: table.shape[0]], keys[table.shape[0] :]
    order = np.argsort(table_keys, kind="stable")
    ordered = table_keys[order]
    at = np.minimum(np.searchsorted(ordered, query_keys), ordered.size - 1)
    hit = ordered[at] == query_keys
    found[hit] = order[at[hit]]
    return found


class ItemsetLevel(Sequence):
    """``n`` same-length itemsets as sorted item rows (a read-only sequence).

    Parameters
    ----------
    schema:
        The schema fixing the item rows.
    rows:
        ``(n, k)`` integer array; row ``i`` holds itemset ``i``'s item
        rows (``boolean_offsets[attr] + value``) in ascending order.
        Taken as given: build levels from itemsets with
        :meth:`from_itemsets`, which validates.

    Integer indexing and iteration yield ordinary :class:`Itemset`
    objects (equal to, and hashing like, ``Itemset.of(...)``), so a
    level stands wherever a sequence of itemsets is expected; slices,
    boolean masks and index arrays select a sub-level.
    """

    def __init__(self, schema: Schema, rows):
        # A view, so freezing it leaves the caller's array writable.
        rows = np.asarray(rows, dtype=np.int64).view()
        if rows.ndim != 2:
            raise DataError(f"level rows must be 2-D (n, k), got shape {rows.shape}")
        rows.setflags(write=False)
        self.schema = schema
        self.rows = rows

    @classmethod
    def from_itemsets(cls, schema: Schema, itemsets) -> "ItemsetLevel":
        """Encode same-length itemsets (domain-validated against ``schema``)."""
        items = [itemset.items for itemset in itemsets]
        lengths = sorted({len(entry) for entry in items})
        if len(lengths) > 1:
            raise MiningError(
                f"a level holds itemsets of one length, got lengths {lengths}"
            )
        length = lengths[0] if lengths else 0
        pairs = np.array(items, dtype=np.int64).reshape(len(items), length, 2)
        attrs, values = pairs[..., 0], pairs[..., 1]
        offsets, cards, _ = _item_tables(schema)
        bad = (attrs < 0) | (attrs >= cards.size)
        bad |= (values < 0) | (values >= cards[np.where(bad, 0, attrs)])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(
                f"item ({attrs[i, j]}, {values[i, j]}) out of domain for this schema"
            )
        return cls(schema, offsets[attrs] + values)

    @classmethod
    def singletons(cls, schema: Schema) -> "ItemsetLevel":
        """Every 1-itemset, in (attribute, value) order (cf. :func:`all_items`)."""
        return cls(schema, np.arange(schema.n_boolean, dtype=np.int64)[:, None])

    @property
    def length(self) -> int:
        """Itemset length ``k`` shared by the whole level."""
        return int(self.rows.shape[1])

    @property
    def item_attributes(self) -> np.ndarray:
        """Attribute of every item row of the schema (length ``M_b``)."""
        return _item_tables(self.schema)[2]

    @property
    def attributes(self) -> np.ndarray:
        """``(n, k)`` attribute positions, ascending along each row."""
        return self.item_attributes[self.rows]

    @property
    def values(self) -> np.ndarray:
        """``(n, k)`` category indices aligned with :attr:`attributes`."""
        offsets = _item_tables(self.schema)[0]
        return self.rows - offsets[self.attributes]

    def subset_sizes(self) -> np.ndarray:
        """``n_Cs`` of every itemset: the product of its attributes' cardinalities."""
        cards = _item_tables(self.schema)[1][self.attributes]
        if (np.log2(cards).sum(axis=1) >= 63).any():
            raise OverflowError("an itemset's sub-domain size exceeds int64")
        return cards.prod(axis=1)

    def _itemsets(self, rows: np.ndarray) -> list[Itemset]:
        offsets, _, item_attr = _item_tables(self.schema)
        attrs = item_attr[rows]
        return [
            Itemset._trusted(tuple(zip(a, v)))
            for a, v in zip(attrs.tolist(), (rows - offsets[attrs]).tolist())
        ]

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def __getitem__(self, index):
        if isinstance(index, Integral):
            return self._itemsets(self.rows[index][None, :])[0]
        return ItemsetLevel(self.schema, self.rows[index])

    def __iter__(self):
        return iter(self._itemsets(self.rows))

    def __repr__(self) -> str:
        return f"ItemsetLevel(n={len(self)}, length={self.length})"


def level_groups(itemsets, schema: Schema) -> tuple[int, list]:
    """Split itemsets into per-length ``(input positions, ItemsetLevel)`` groups.

    Returns ``(n, groups)``: the input's length and its groups in
    ascending itemset length.  An :class:`ItemsetLevel` over ``schema``
    is its own single group (no copy); any other iterable -- list,
    generator, duplicates, mixed lengths -- is consumed once, and each
    group's ``positions`` scatter per-group results back to input order.
    """
    if isinstance(itemsets, ItemsetLevel) and itemsets.schema == schema:
        n = len(itemsets)
        return n, ([(np.arange(n), itemsets)] if n else [])
    by_length: dict[int, tuple[list, list]] = {}
    n = 0
    for itemset in itemsets:
        positions, members = by_length.setdefault(len(itemset.items), ([], []))
        positions.append(n)
        members.append(itemset)
        n += 1
    return n, [
        (
            np.asarray(positions, dtype=np.int64),
            ItemsetLevel.from_itemsets(schema, members),
        )
        for _, (positions, members) in sorted(by_length.items())
    ]
