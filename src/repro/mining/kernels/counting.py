"""Batched support counting over packed transaction bitmaps.

:class:`BitmapSupportCounter` is the kernel-backed Apriori
``SupportSource``: it answers whole candidate batches with vectorized
AND + popcount, reading item rows straight from the array-encoded level
(:class:`~repro.mining.itemsets.ItemsetLevel`), and keeps the previous
batch's itemset bitmaps cached, so level-``k`` candidates whose
``(k-1)``-prefix was scored in the previous Apriori pass cost exactly
one AND each.  Itemsets that arrive without a cached prefix (the first
level, or ad-hoc queries) are reduced from their item rows directly,
one batched reduction per itemset length.

Also here:

* :func:`pattern_counts` -- exact counts of all ``2^k`` bit patterns
  over ``k`` bitmap rows, for one candidate or a whole level at once
  (each distinct sub-itemset popcounted once, then a vectorized Möbius
  transform), which is how the MASK and C&P estimators' observed side
  runs on bitmaps;
* :func:`intersection_counts` -- those pattern counts binned by
  popcount, the intersection-size histogram the C&P estimator solves;
* :func:`compress_transactions` -- vectorized transaction weighting for
  FP-Growth (one ``np.unique`` pass instead of a per-record Python
  loop).
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import combinations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, MiningError
from repro.mining.itemsets import level_groups, match_rows, row_keys
from repro.mining.kernels import native
from repro.mining.kernels.bitmap import TransactionBitmaps, popcount_words

#: The selectable support-counting backends, everywhere a
#: ``count_backend`` knob exists (config, CLI, estimators, miners).
COUNT_BACKENDS = ("loops", "bitmap", "native")

#: The backends that count over packed transaction bitmaps.  ``native``
#: is the compiled AND+popcount kernel; everywhere the code routes
#: "bitmap-shaped" work (wide schemas, ``mine_stream``, the bitmap
#: estimators) it accepts either member and passes the resolved value
#: down to the word kernels.
BITMAP_BACKENDS = ("bitmap", "native")

#: Pattern spaces larger than this fall back to the loop path in the
#: MASK and C&P bitmap estimators: 2^k AND/popcounts (and MASK's
#: 2^k x 2^k tensor-power solve downstream) stop paying off.
MAX_PATTERN_BITS = 12

_fallback_warned = False


def validate_backend(backend: str) -> str:
    """Normalise and validate a ``count_backend`` value."""
    backend = str(backend).lower()
    if backend not in COUNT_BACKENDS:
        raise MiningError(
            f"count_backend must be one of {COUNT_BACKENDS}, got {backend!r}"
        )
    return backend


def resolve_backend(backend: str) -> str:
    """Validate ``backend`` and downgrade ``native`` when unavailable.

    ``native`` resolves to ``bitmap`` (identical counts, pure-NumPy
    kernels) when the compiled extension is absent or disabled via
    ``REPRO_FORCE_PYTHON=1``.  The downgrade warns exactly once per
    process -- pure-sdist installs should run quietly, but operators
    who *asked* for native deserve one breadcrumb.
    """
    global _fallback_warned
    backend = validate_backend(backend)
    if backend == "native" and not native.available():
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "count_backend=native requested but the compiled kernel "
                "extension is unavailable; falling back to 'bitmap' "
                "(identical results, NumPy kernels)",
                RuntimeWarning,
                stacklevel=2,
            )
        return "bitmap"
    return backend


class BitmapSupportCounter:
    """Exact fractional supports via packed bitmaps (a ``SupportSource``).

    Parameters
    ----------
    bitmaps:
        The packed :class:`~repro.mining.kernels.bitmap.TransactionBitmaps`
        (build with :meth:`from_dataset`, or fold chunks through
        :class:`repro.pipeline.BitmapAccumulator`).

    backend:
        ``"bitmap"`` (NumPy AND + popcount, the default) or ``"native"``
        (the compiled threaded kernels; resolved through
        :func:`resolve_backend`, so it silently degrades to ``bitmap``
        on pure-python installs).  Both produce identical counts.

    Notes
    -----
    Counts are integers identical to the ``bincount`` loop path of
    :class:`repro.mining.counting.ExactSupportCounter`, so supports are
    bit-identical floats.  The level cache holds only the most recent
    batch's bitmaps: Apriori prefixes always come from the immediately
    preceding level, so older levels can never be parents again.
    """

    def __init__(self, bitmaps: TransactionBitmaps, backend: str = "bitmap"):
        backend = resolve_backend(backend)
        if backend not in BITMAP_BACKENDS:
            raise MiningError(
                f"BitmapSupportCounter backend must be one of "
                f"{BITMAP_BACKENDS}, got {backend!r}"
            )
        self.bitmaps = bitmaps
        self.schema = bitmaps.schema
        self.backend = backend
        # The previous batch's ``level_groups`` and its reduced bitmaps.
        self._cache: list = []
        self._cache_words: np.ndarray | None = None

    @classmethod
    def from_dataset(
        cls, dataset: CategoricalDataset, backend: str = "bitmap"
    ) -> "BitmapSupportCounter":
        """Pack a dataset and wrap it in a counter."""
        return cls(TransactionBitmaps.from_dataset(dataset), backend=backend)

    # ------------------------------------------------------------------
    # batched counting
    # ------------------------------------------------------------------
    def counts(self, itemsets) -> np.ndarray:
        """Exact record counts of a candidate batch (``int64`` array).

        Per length group: one vectorized AND for candidates whose
        ``(k-1)``-prefix is in the previous batch, one grouped
        AND-reduction for the rest; the batch's bitmaps replace the
        cache afterwards.
        """
        n, groups = level_groups(itemsets, self.schema)
        words = self.bitmaps.words
        batch = np.empty((n, self.bitmaps.n_words), dtype=np.uint64)
        use_native = self.backend == "native"
        result = np.empty(n, dtype=np.int64)
        for positions, level in groups:
            rows = level.rows
            parent = self._cached_parents(rows)
            hit = parent >= 0
            miss = ~hit
            if use_native:
                # Fused path: each segment's AND lands in ``batch`` (the
                # next level's cache) and its popcount comes back from
                # the same kernel pass -- no second sweep over the words.
                if miss.any():
                    result[positions[miss]] = native.and_group_counts(
                        words, rows[miss], out_words=batch, out_idx=positions[miss]
                    )
                if hit.any():
                    result[positions[hit]] = native.and_pair_counts(
                        self._cache_words,
                        parent[hit],
                        words,
                        rows[hit, -1],
                        out_words=batch,
                        out_idx=positions[hit],
                    )
            elif level.length == 1:
                batch[positions] = words[rows[:, 0]]
            else:
                if miss.any():
                    batch[positions[miss]] = np.bitwise_and.reduce(
                        words[rows[miss]], axis=1
                    )
                if hit.any():
                    batch[positions[hit]] = np.bitwise_and(
                        self._cache_words[parent[hit]], words[rows[hit, -1]]
                    )
        if not use_native:
            result = popcount_words(batch, axis=1)
        self._cache = groups
        self._cache_words = batch
        return result

    def _cached_parents(self, rows: np.ndarray) -> np.ndarray:
        """Previous-batch index of each row's ``(k-1)``-prefix, or ``-1``."""
        parents = np.full(rows.shape[0], -1, dtype=np.int64)
        k = rows.shape[1]
        for positions, level in self._cache:
            if level.length == k - 1:
                found = match_rows(level.rows, rows[:, :-1], self.schema.n_boolean)
                parents[found >= 0] = positions[found[found >= 0]]
        return parents

    def supports(self, itemsets) -> np.ndarray:
        """Fraction of records supporting each itemset (exact)."""
        if self.bitmaps.n_records == 0:
            raise MiningError("cannot count supports of an empty dataset")
        return self.counts(itemsets) / self.bitmaps.n_records


#: Working-set budgets of :func:`pattern_counts`: bytes of bitmap words
#: ANDed at once, and sub-itemset index entries built at once.
_AND_SLAB_BYTES = 1 << 22
_SUBSET_SLAB_ENTRIES = 1 << 20


def pattern_counts(
    bitmaps: TransactionBitmaps, positions, backend: str = "bitmap"
) -> np.ndarray:
    """Exact counts of all ``2^k`` bit patterns over ``k`` bitmap rows.

    ``positions`` is one candidate's ``k`` rows (returns ``2^k``
    counts) or a whole level's ``(n, k)`` rows (returns ``(n, 2^k)``,
    row ``i`` equal to the call on ``positions[i]``).

    Index convention matches
    :meth:`repro.baselines.mask.MaskPerturbation.estimate_pattern_counts`:
    pattern code ``sum_i b_i * 2^(k-1-i)`` with ``b_i`` the bit at
    ``positions[i]`` (most significant first), so index ``2^k - 1`` is
    the all-bits-set itemset count.

    The kernel computes superset counts ``m[S]`` -- records with every
    bit of ``S`` set -- for every sub-itemset ``S``, popcounting each
    *distinct* sub-itemset of the level once (candidates of one level
    share most of theirs) in bounded-memory slabs, then recovers exact
    pattern counts with a superset Möbius transform in ``O(k 2^k)`` per
    candidate, vectorized over the level.  ``backend="native"`` runs
    the AND-reductions through the compiled threaded kernel (identical
    counts).
    """
    positions = np.asarray(positions, dtype=np.int64)
    single = positions.ndim == 1
    level = positions[None, :] if single else positions
    if level.ndim != 2:
        raise DataError(f"positions must be 1-D or 2-D, got shape {positions.shape}")
    n, k = level.shape
    if k < 1:
        raise DataError("need at least one bit position")
    if k > MAX_PATTERN_BITS:
        raise DataError(f"pattern space 2^{k} too large for the bitmap kernel")
    base = bitmaps.words.shape[0]
    if level.size and (level.min() < 0 or level.max() >= base):
        raise DataError(f"bit positions must lie in [0, {base})")
    use_native = resolve_backend(backend) == "native"
    superset = np.empty((n, 1 << k), dtype=np.int64)
    superset[:, 0] = bitmaps.n_records
    step = max(1, _SUBSET_SLAB_ENTRIES // (k << k))
    for start in range(0, n, step):
        candidates = level[start : start + step]
        block = superset[start : start + step]
        for columns, codes in _sub_itemsets(k):
            subsets = candidates[:, columns].reshape(-1, columns.shape[1])
            _, first, inverse = np.unique(
                row_keys(subsets, base), return_index=True, return_inverse=True
            )
            counts = _and_counts(bitmaps.words, subsets[first], use_native)
            block[:, codes] = counts[inverse].reshape(block.shape[0], -1)
    # Möbius over supersets: c[P] = sum_{S >= P} (-1)^{|S \ P|} m[S].
    tensor = superset.reshape((n,) + (2,) * k)
    for axis in range(1, k + 1):
        without = [slice(None)] * (k + 1)
        with_bit = [slice(None)] * (k + 1)
        without[axis] = 0
        with_bit[axis] = 1
        tensor[tuple(without)] -= tensor[tuple(with_bit)]
    return superset[0] if single else superset


@lru_cache(maxsize=None)
def _sub_itemsets(k: int) -> tuple:
    """``(columns, codes)`` per sub-itemset size ``1..k`` of a ``k``-set.

    ``columns`` is ``(C, size)``: every ascending choice of ``size`` of
    the ``k`` positions; ``codes`` is each choice's msb-first pattern
    code (position ``i`` owns bit ``k - 1 - i``).
    """
    groups = []
    for size in range(1, k + 1):
        columns = np.array(list(combinations(range(k), size)), dtype=np.int64)
        codes = (1 << (k - 1 - columns)).sum(axis=1)
        columns.flags.writeable = False
        codes.flags.writeable = False
        groups.append((columns, codes))
    return tuple(groups)


def _and_counts(words: np.ndarray, groups: np.ndarray, use_native: bool) -> np.ndarray:
    """Popcount of the AND of each ``groups`` row's bitmap rows."""
    if use_native:
        return native.and_group_counts(words, groups)
    counts = np.empty(groups.shape[0], dtype=np.int64)
    step = max(1, _AND_SLAB_BYTES // max(1, words.shape[1] * words.itemsize))
    for start in range(0, groups.shape[0], step):
        slab = groups[start : start + step]
        acc = words[slab[:, 0]]
        for column in range(1, slab.shape[1]):
            acc &= words[slab[:, column]]
        counts[start : start + slab.shape[0]] = popcount_words(acc, axis=1)
    return counts


@lru_cache(maxsize=None)
def _code_popcounts(k: int) -> np.ndarray:
    codes = np.arange(1 << k, dtype=np.uint64)
    ones = popcount_words(codes[:, None], axis=1)
    ones.flags.writeable = False
    return ones


def intersection_counts(counts) -> np.ndarray:
    """Bin ``2^k`` pattern counts by popcount: a length-``k + 1`` histogram.

    Entry ``l`` is the number of records with exactly ``l`` of the ``k``
    bits set -- what slicing the ``k`` columns out of the bit matrix,
    summing each row and ``bincount``-ing gives, computed from
    :func:`pattern_counts` output instead.  Integer in, integer out, so
    the two routes agree exactly.
    """
    counts = np.asarray(counts)
    size = counts.shape[0]
    k = int(size).bit_length() - 1
    if size < 2 or size != (1 << k):
        raise DataError(f"pattern counts must have a 2^k length >= 2, got {size}")
    binned = np.bincount(_code_popcounts(k), weights=counts, minlength=k + 1)
    return binned.astype(np.int64)


def compress_transactions(dataset: CategoricalDataset):
    """Distinct records as ``((items, weight), ...)`` -- vectorized.

    FP-Growth inserts one weighted path per *distinct* record; this
    replaces its per-record Python accumulation with a single
    ``np.unique`` over joint indices plus one batched decode.  Item
    tuples are ``(attribute, value)`` in attribute order, matching
    :class:`repro.mining.itemsets.Itemset`.
    """
    joint = dataset.joint_indices()
    values, counts = np.unique(joint, return_counts=True)
    rows = dataset.schema.decode(values)
    return [
        (
            tuple((attr, int(value)) for attr, value in enumerate(row)),
            int(weight),
        )
        for row, weight in zip(rows, counts)
    ]
