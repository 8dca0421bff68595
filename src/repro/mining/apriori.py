"""The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB 1994).

Levelwise mining specialised to categorical itemsets (at most one item
per attribute): level-``k`` candidates are built by joining frequent
``(k-1)``-itemsets that share their first ``k-2`` items and end in items
on *different* attributes, then pruned by downward closure.  Supports
come from a pluggable ``SupportSource`` (exact counter or a
reconstruction estimator), which is how the privacy-preserving variants
reuse the same miner (paper Section 6).

Levels stay array-encoded (:class:`~repro.mining.itemsets.ItemsetLevel`)
from the join through support estimation: the join pairs rows inside
each ``(k-1)``-prefix group, the prune is a sorted-key membership test
of the drop-one subsets, and only the itemsets found frequent become
:class:`~repro.mining.itemsets.Itemset` keys of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import MiningError
from repro.mining.itemsets import Itemset, ItemsetLevel, match_rows, row_keys


@dataclass
class AprioriResult:
    """Outcome of a mining run.

    Attributes
    ----------
    min_support:
        The fractional threshold used.
    by_length:
        ``{length: {itemset: support}}`` for every frequent itemset.
        Supports are the source's values (exact or estimated).
    """

    min_support: float
    by_length: dict = field(default_factory=dict)

    @property
    def max_length(self) -> int:
        """Longest frequent-itemset length found (0 when none)."""
        return max(self.by_length, default=0)

    @property
    def n_frequent(self) -> int:
        """Total number of frequent itemsets across all lengths."""
        return sum(len(level) for level in self.by_length.values())

    def counts_by_length(self) -> dict[int, int]:
        """``{length: count}`` -- the shape of paper Table 3."""
        return {length: len(level) for length, level in sorted(self.by_length.items())}

    def frequent(self, length: int | None = None) -> dict[Itemset, float]:
        """Frequent itemsets (of one length, or all merged)."""
        if length is not None:
            return dict(self.by_length.get(length, {}))
        merged: dict[Itemset, float] = {}
        for level in self.by_length.values():
            merged.update(level)
        return merged

    def support_of(self, itemset: Itemset) -> float:
        """Support of a frequent itemset (raises if not frequent)."""
        level = self.by_length.get(itemset.length, {})
        try:
            return level[itemset]
        except KeyError:
            raise MiningError(f"{itemset} is not frequent in this result") from None


def generate_candidates(frequent_level):
    """Level-``k+1`` candidates from the frequent level-``k`` itemsets.

    Join step: two itemsets sharing their first ``k-1`` items whose last
    items sit on different attributes merge into a ``(k+1)``-candidate.
    Prune step: drop candidates with any infrequent ``k``-subset
    (downward closure).  Candidates come out in ascending itemset order,
    each once; duplicate inputs count once.

    A list (or any iterable) of :class:`Itemset` gives a list; an
    :class:`~repro.mining.itemsets.ItemsetLevel` gives a level.  Mixed
    itemset lengths raise :class:`~repro.exceptions.MiningError`.
    """
    if isinstance(frequent_level, ItemsetLevel):
        rows = _join_prune(
            frequent_level.rows,
            frequent_level.item_attributes,
            frequent_level.schema.n_boolean,
        )
        return ItemsetLevel(frequent_level.schema, rows)
    itemsets = list(frequent_level)
    lengths = sorted({len(itemset.items) for itemset in itemsets})
    if len(lengths) > 1:
        raise MiningError(
            f"candidates need frequent itemsets of one length, got lengths {lengths}"
        )
    if not itemsets:
        return []
    # Number the distinct items in (attribute, value) order: the ids
    # then sort exactly like the items, with no schema needed.
    codebook = sorted({item for itemset in itemsets for item in itemset.items})
    ids = {item: i for i, item in enumerate(codebook)}
    rows = np.array(
        [[ids[item] for item in itemset.items] for itemset in itemsets],
        dtype=np.int64,
    )
    item_attr = np.array([attr for attr, _ in codebook], dtype=np.int64)
    joined = _join_prune(rows, item_attr, len(codebook))
    return [
        Itemset._trusted(tuple(codebook[i] for i in row)) for row in joined.tolist()
    ]


def _join_prune(rows: np.ndarray, item_attr: np.ndarray, base: int) -> np.ndarray:
    """Join and prune on ``(n, k)`` item-id rows; ``(m, k + 1)`` candidates.

    Ids lie in ``[0, base)`` and sort like their items; ``item_attr``
    maps an id to its attribute.  The output is in the order of the
    nested loop "for each row, for each later row of its prefix group"
    over the sorted distinct rows, i.e. ascending.
    """
    n, k = rows.shape
    if n == 0:
        return np.empty((0, k + 1), dtype=np.int64)
    rows = rows[np.unique(row_keys(rows, base), return_index=True)[1]]
    n = rows.shape[0]
    # Prefix groups are contiguous runs of the sorted rows.
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = np.any(rows[1:, :-1] != rows[:-1, :-1], axis=1)
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], n)
    later = np.repeat(ends, ends - starts) - np.arange(n) - 1
    # Every in-group pair i < j, in (i, j) order.
    left = np.repeat(np.arange(n), later)
    block_start = np.repeat(np.cumsum(later) - later, later)
    right = left + 1 + np.arange(left.size) - block_start
    last = rows[:, -1]
    distinct = item_attr[last[left]] != item_attr[last[right]]
    left, right = left[distinct], right[distinct]
    candidates = np.concatenate([rows[left], last[right, None]], axis=1)
    if k < 2 or not candidates.shape[0]:
        return candidates
    # Dropping item k or k-1 gives a parent; the k-1 others must be frequent.
    subsets = np.concatenate([np.delete(candidates, d, axis=1) for d in range(k - 1)])
    frequent = match_rows(rows, subsets, base) >= 0
    return candidates[frequent.reshape(k - 1, -1).all(axis=0)]


def apriori(
    support_source,
    schema: Schema,
    min_support: float,
    max_length: int | None = None,
) -> AprioriResult:
    """Mine all frequent itemsets above ``min_support``.

    Parameters
    ----------
    support_source:
        Object with ``supports(itemsets) -> array`` of fractional
        supports (see :mod:`repro.mining.counting`).
    schema:
        The categorical schema (bounds itemset length by ``M``).
    min_support:
        Fractional threshold ``supmin`` in (0, 1]; the paper uses 0.02.
    max_length:
        Optional cap on itemset length (defaults to all ``M`` levels).
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must lie in (0, 1], got {min_support}")
    if max_length is None:
        max_length = schema.n_attributes
    if max_length < 1:
        raise MiningError(f"max_length must be >= 1, got {max_length}")

    result = AprioriResult(min_support=min_support)
    candidates = ItemsetLevel.singletons(schema)
    length = 1
    while len(candidates) and length <= max_length:
        supports = np.asarray(support_source.supports(candidates), dtype=float)
        if supports.shape != (len(candidates),):
            raise MiningError(
                f"support source returned shape {supports.shape} for "
                f"{len(candidates)} candidates"
            )
        frequent = supports >= min_support
        if not frequent.any():
            break
        level = candidates[frequent]
        result.by_length[length] = dict(zip(level, supports[frequent].tolist()))
        candidates = generate_candidates(level)
        length += 1
    return result
