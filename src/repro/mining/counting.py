"""Support sources: one observed-count source plus per-mechanism solvers.

Apriori (:mod:`repro.mining.apriori`) is written against the small
``SupportSource`` protocol -- ``supports(itemsets) -> array of
fractional supports`` -- so the same miner runs on original data (exact
counts) and on perturbed data (reconstructed estimates), which is
exactly how the paper stages its experiments (Section 7, "Perturbation
Mechanisms": Apriori "with an additional support reconstruction phase
at the end of each pass").

Mining perturbed data is always the same two steps -- count what was
observed, then invert the mechanism's matrix -- so there is one count
source and one solver step per mechanism:

* :class:`ExactSupportCounter` -- *the* observed-count source.  It
  wraps a categorical dataset, a
  :class:`~repro.pipeline.JointCountAccumulator` or a
  :class:`~repro.pipeline.BitmapAccumulator` and answers itemset
  ``supports`` and sub-domain ``subset_counts``; on unperturbed data
  it is the exact miner's support source;
* :class:`GammaDiagonalSupportEstimator` -- DET-GD/RAN-GD: the
  counter's observed supports pushed through the Eq.-28 closed-form
  inverse, whichever of the three sources it counts on;
* the bit-matrix estimator (``MaskSupportEstimator`` and
  ``CutAndPasteSupportEstimator`` are the same class) -- MASK and C&P:
  level-batched pattern counts of an ``(N, M_b)`` perturbed bit matrix,
  solved per candidate by the operator's own
  ``support_from_pattern_counts``;
* :class:`repro.mechanisms.base.MarginalInversionEstimator` -- every
  other columnar mechanism, over the counter's ``subset_counts``.

The streaming names ``AccumulatedSupportEstimator`` and
``BitmapStreamSupportEstimator`` (:mod:`repro.pipeline.streaming`) are
aliases of :class:`GammaDiagonalSupportEstimator`.

Observed counts come from one of three backends, selected with
``count_backend``:

* ``"bitmap"`` (default) -- the packed AND/popcount kernels of
  :mod:`repro.mining.kernels`: whole candidate batches per Apriori
  level, with the previous level's itemset bitmaps cached;
* ``"native"`` -- the same bitmap layout counted by the compiled,
  thread-parallel hardware-popcount kernels
  (:mod:`repro.mining.kernels.native`); degrades to ``"bitmap"`` with
  a one-time warning when the extension is absent;
* ``"loops"`` -- per-subset ``bincount`` passes (for MASK and C&P:
  per-candidate slices of the bit matrix), kept as a dependency-free
  fallback and as the equivalence oracle.

The backends produce *identical* integer counts (and therefore
bit-identical supports); the estimator outputs follow the same
closed forms either way.

Every source accepts any iterable of itemsets: an Apriori level
(:class:`~repro.mining.itemsets.ItemsetLevel`) is used as it is, and
anything else is split into per-length levels by
:func:`~repro.mining.itemsets.level_groups` with results scattered back
to input order -- except on ``"loops"``, which stays the per-itemset
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.marginal import estimate_subset_supports_batch
from repro.data.schema import Schema
from repro.exceptions import DataError, MiningError
from repro.mining.itemsets import ItemsetLevel, level_groups
from repro.mining.kernels import (
    BitmapSupportCounter,
    TransactionBitmaps,
    pattern_counts,
    resolve_backend,
    validate_backend,
)
from repro.mining.kernels.counting import BITMAP_BACKENDS, MAX_PATTERN_BITS


class ExactSupportCounter:
    """Observed supports and sub-domain counts of one record source.

    Parameters
    ----------
    data:
        A categorical dataset (original or perturbed), a
        :class:`~repro.pipeline.JointCountAccumulator` or a
        :class:`~repro.pipeline.BitmapAccumulator`.
    count_backend:
        ``"bitmap"`` (default) counts itemset supports through the
        packed AND/popcount kernel, built lazily on first use;
        ``"native"`` counts the same bitmaps with the compiled threaded
        kernels (resolved through
        :func:`repro.mining.kernels.resolve_backend`) and also answers
        ``subset_counts`` from them; ``"loops"`` keeps the per-subset
        ``bincount`` path.  Joint-count accumulators always count on
        ``"loops"`` and bitmap accumulators on a bitmap backend.  All
        routes return identical values.
    """

    def __init__(self, data, count_backend: str = "bitmap"):
        from repro.pipeline.accumulator import BitmapAccumulator, JointCountAccumulator

        backend = validate_backend(count_backend)
        self._folded_bitmaps = isinstance(data, BitmapAccumulator)
        if isinstance(data, JointCountAccumulator):
            backend = "loops"
        elif self._folded_bitmaps and backend == "loops":
            backend = "bitmap"
        self.data = data
        self.schema: Schema = data.schema
        self.count_backend = resolve_backend(backend)
        self._bitmaps: TransactionBitmaps | None = None
        self._counter: BitmapSupportCounter | None = None

    def _packed(self) -> TransactionBitmaps:
        if self._folded_bitmaps:
            return self.data.bitmaps
        if self._bitmaps is None:
            self._bitmaps = TransactionBitmaps.from_dataset(self.data)
        return self._bitmaps

    def subset_counts(self, attrs) -> np.ndarray:
        """Count vector over an attribute subset's sub-domain."""
        if self._folded_bitmaps or self.count_backend == "native":
            return self._packed().subset_counts(attrs, backend=self.count_backend)
        return self.data.subset_counts(attrs)

    def supports(self, itemsets) -> np.ndarray:
        """Fraction of records supporting each itemset."""
        n_records = self.data.n_records
        if n_records == 0:
            raise MiningError("cannot count supports of an empty dataset")
        if self.count_backend in BITMAP_BACKENDS:
            bitmaps = self._packed()
            # A bitmap accumulator re-merges after every fold: a fresh
            # `bitmaps` object means the counter's level cache is stale.
            if self._counter is None or self._counter.bitmaps is not bitmaps:
                self._counter = BitmapSupportCounter(
                    bitmaps, backend=self.count_backend
                )
            return self._counter.supports(itemsets)
        itemsets = list(itemsets)
        # One sub-domain count per distinct subset, shared by its itemsets.
        cache: dict[tuple[int, ...], np.ndarray] = {}
        supports = np.empty(len(itemsets))
        cards = self.schema.cardinalities
        for i, itemset in enumerate(itemsets):
            attrs = itemset.attributes
            counts = cache.get(attrs)
            if counts is None:
                counts = cache[attrs] = self.subset_counts(attrs)
            dims = [cards[a] for a in attrs]
            cell = int(np.ravel_multi_index(itemset.values, dims=dims))
            supports[i] = counts[cell] / n_records
        return supports


class GammaDiagonalSupportEstimator:
    """Reconstructed supports for DET-GD and RAN-GD perturbed data.

    Parameters
    ----------
    perturbed:
        The gamma-diagonal-perturbed records: a dataset, or the
        joint-count / bitmap accumulator a
        :class:`~repro.pipeline.PerturbationPipeline` folded them into.
    gamma:
        The amplification bound used at perturbation time.  RAN-GD uses
        the same estimator because ``E[Ã]`` equals the deterministic
        matrix (paper Section 4.2).
    count_backend:
        Backend for the *observed*-support counting pass (the Eq.-28
        inverse is the same closed form either way).
    """

    def __init__(self, perturbed, gamma: float, count_backend: str = "bitmap"):
        self.perturbed = perturbed
        self.schema: Schema = perturbed.schema
        self.gamma = float(gamma)
        self._observed = ExactSupportCounter(perturbed, count_backend)

    @property
    def count_backend(self) -> str:
        """The counting kernel used for the observed supports."""
        return self._observed.count_backend

    def supports(self, itemsets) -> np.ndarray:
        """Eq.-28 closed-form estimates; may be negative for rare sets."""
        if not isinstance(itemsets, ItemsetLevel):
            itemsets = list(itemsets)
        observed = self._observed.supports(itemsets)
        subset_sizes = np.empty(len(observed), dtype=np.int64)
        for positions, level in level_groups(itemsets, self.schema)[1]:
            subset_sizes[positions] = level.subset_sizes()
        return estimate_subset_supports_batch(
            observed, self.gamma, self.schema.joint_size, subset_sizes
        )


class _BitMatrixEstimator:
    """Reconstructed supports from MASK- or C&P-perturbed boolean data.

    Both baselines release an ``(N, M_b)`` bit matrix and reconstruct
    each candidate from the observed distribution of its bit patterns.
    On the ``"bitmap"``/``"native"`` backends the matrix is packed into
    :class:`~repro.mining.kernels.TransactionBitmaps` once, on first
    use; each length group's ``(n, 2^k)`` pattern counts come from one
    :func:`~repro.mining.kernels.pattern_counts` call (superset
    popcounts + a Möbius transform), and the operator's
    ``support_from_pattern_counts`` solves each candidate's row: MASK's
    tensor-power system, or C&P's partial-support system on the
    popcount-binned histogram.  On ``"loops"`` and for candidates wider
    than ``MAX_PATTERN_BITS`` the operator's own
    ``estimate_itemset_support`` re-scans the bit matrix instead (the
    equivalence oracle).  The integer counts are equal on every backend,
    so estimates are identical.
    """

    def __init__(
        self,
        schema: Schema,
        perturbed_bits,
        operator,
        count_backend: str = "bitmap",
    ):
        perturbed_bits = np.asarray(perturbed_bits)
        if perturbed_bits.ndim != 2 or perturbed_bits.shape[1] != schema.n_boolean:
            raise DataError(
                f"perturbed bits must have shape (N, {schema.n_boolean}), "
                f"got {perturbed_bits.shape}"
            )
        self.schema = schema
        self.perturbed_bits = perturbed_bits
        self.operator = operator
        self.count_backend = resolve_backend(count_backend)
        self._bitmaps: TransactionBitmaps | None = None

    def _estimate_level(self, rows: np.ndarray) -> list[float]:
        if (
            self.count_backend not in BITMAP_BACKENDS
            or rows.shape[1] > MAX_PATTERN_BITS
        ):
            return [
                self.operator.estimate_itemset_support(self.perturbed_bits, positions)
                for positions in rows.tolist()
            ]
        if self.perturbed_bits.shape[0] == 0:
            raise DataError("empty perturbed database")
        if self._bitmaps is None:
            self._bitmaps = TransactionBitmaps.from_boolean_matrix(
                self.schema, self.perturbed_bits
            )
        counts = pattern_counts(self._bitmaps, rows, backend=self.count_backend)
        return [self.operator.support_from_pattern_counts(row) for row in counts]

    def supports(self, itemsets) -> np.ndarray:
        """Per-candidate reconstruction through the operator's solver."""
        n, groups = level_groups(itemsets, self.schema)
        estimates = np.empty(n)
        for positions, level in groups:
            # An itemset's item rows are its booleanized bit positions.
            estimates[positions] = self._estimate_level(level.rows)
        return estimates


#: Legacy names of the bit-matrix estimator (one class, not subclasses).
MaskSupportEstimator = _BitMatrixEstimator
CutAndPasteSupportEstimator = _BitMatrixEstimator
