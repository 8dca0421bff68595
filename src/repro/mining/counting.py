"""Support sources: exact counting and per-mechanism estimation.

Apriori (:mod:`repro.mining.apriori`) is written against the small
``SupportSource`` protocol -- ``supports(itemsets) -> array of
fractional supports`` -- so the same miner runs on original data (exact
counts) and on perturbed data (reconstructed estimates), which is
exactly how the paper stages its experiments (Section 7, "Perturbation
Mechanisms": Apriori "with an additional support reconstruction phase
at the end of each pass").

Implementations:

* :class:`ExactSupportCounter` -- true supports on a categorical
  dataset;
* :class:`GammaDiagonalSupportEstimator` -- DET-GD/RAN-GD: observed
  perturbed supports pushed through the Eq.-28 closed-form inverse;
* :class:`MaskSupportEstimator` -- MASK: per-candidate tensor-power
  system over the item bits, one matrix per itemset length;
* :class:`CutAndPasteSupportEstimator` -- C&P: per-candidate
  partial-support system, one matrix per itemset length on the
  bitmap backends.

Every *observed*-support side (exact counting, and the counting pass of
the DET-GD/RAN-GD, MASK and C&P estimators) runs on one of three
backends, selected with ``count_backend``:

* ``"bitmap"`` (default) -- the packed AND/popcount kernels of
  :mod:`repro.mining.kernels`: whole candidate batches per Apriori
  level, with the previous level's itemset bitmaps cached;
* ``"native"`` -- the same bitmap layout counted by the compiled,
  thread-parallel hardware-popcount kernels
  (:mod:`repro.mining.kernels.native`); degrades to ``"bitmap"`` with
  a one-time warning when the extension is absent;
* ``"loops"`` -- the original per-subset ``bincount`` passes (for MASK
  and C&P: per-candidate slices of the bit matrix), kept as a
  dependency-free fallback and as the equivalence oracle.

The backends produce *identical* integer counts (and therefore
bit-identical supports); the estimator outputs follow the same
closed forms either way.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cut_and_paste import CutAndPastePerturbation
from repro.baselines.mask import MaskPerturbation
from repro.core.marginal import estimate_subset_supports_batch
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError, MiningError
from repro.mining.kernels import (
    BitmapSupportCounter,
    TransactionBitmaps,
    intersection_counts,
    pattern_counts,
    resolve_backend,
)
from repro.mining.kernels.counting import BITMAP_BACKENDS, MAX_PATTERN_BITS


def supports_from_subset_counts(
    schema: Schema, n_records: int, subset_counts, itemsets
) -> np.ndarray:
    """Fractional support of each itemset via shared per-subset counts.

    ``subset_counts(attrs)`` supplies the count vector over an attribute
    subset's sub-domain -- a dataset's ``subset_counts`` for direct
    counting, or a :class:`repro.pipeline.JointCountAccumulator`'s for
    the streaming path.  One lookup per distinct subset is shared by all
    its itemsets.  This is the ``"loops"`` backend; the ``"bitmap"``
    backend lives in :mod:`repro.mining.kernels`.
    """
    if n_records == 0:
        raise MiningError("cannot count supports of an empty dataset")
    cache: dict[tuple[int, ...], np.ndarray] = {}
    supports = np.empty(len(itemsets))
    cards = schema.cardinalities
    for i, itemset in enumerate(itemsets):
        attrs = itemset.attributes
        counts = cache.get(attrs)
        if counts is None:
            counts = subset_counts(attrs)
            cache[attrs] = counts
        dims = [cards[a] for a in attrs]
        cell = int(np.ravel_multi_index(itemset.values, dims=dims))
        supports[i] = counts[cell] / n_records
    return supports


def _subset_support_lookup(dataset: CategoricalDataset, itemsets) -> np.ndarray:
    """Fractional support of each itemset by direct dataset counting."""
    return supports_from_subset_counts(
        dataset.schema, dataset.n_records, dataset.subset_counts, itemsets
    )


def reconstruct_gamma_diagonal_supports(
    schema: Schema, observed: np.ndarray, itemsets, gamma: float
) -> np.ndarray:
    """Eq.-28 closed-form estimates from observed subset supports.

    Shared by the dataset-backed estimator and the streaming
    accumulated-count estimators; one vectorized pass over the whole
    candidate batch (estimates may be negative for rare itemsets).
    """
    itemsets = list(itemsets)
    subset_sizes = np.fromiter(
        (schema.subset_size(itemset.attributes) for itemset in itemsets),
        dtype=np.int64,
        count=len(itemsets),
    )
    return estimate_subset_supports_batch(
        observed, gamma, schema.joint_size, subset_sizes
    )


class ExactSupportCounter:
    """True fractional supports on an unperturbed dataset.

    Parameters
    ----------
    dataset:
        The categorical dataset to count over.
    count_backend:
        ``"bitmap"`` (default) counts through the packed AND/popcount
        kernel, built lazily on first use; ``"native"`` counts the same
        bitmaps with the compiled threaded kernels (resolved through
        :func:`repro.mining.kernels.resolve_backend`); ``"loops"``
        keeps the per-subset ``bincount`` path.  All return identical
        values.
    """

    def __init__(self, dataset: CategoricalDataset, count_backend: str = "bitmap"):
        self.dataset = dataset
        self.count_backend = resolve_backend(count_backend)
        self._bitmap_counter: BitmapSupportCounter | None = None

    def supports(self, itemsets) -> np.ndarray:
        """Fraction of records supporting each itemset."""
        itemsets = list(itemsets)
        if self.count_backend in BITMAP_BACKENDS:
            if self._bitmap_counter is None:
                self._bitmap_counter = BitmapSupportCounter.from_dataset(
                    self.dataset, backend=self.count_backend
                )
            return self._bitmap_counter.supports(itemsets)
        return _subset_support_lookup(self.dataset, itemsets)


class GammaDiagonalSupportEstimator:
    """Reconstructed supports for DET-GD and RAN-GD perturbed data.

    Parameters
    ----------
    perturbed:
        The gamma-diagonal-perturbed dataset (still categorical).
    gamma:
        The amplification bound used at perturbation time.  RAN-GD uses
        the same estimator because ``E[Ã]`` equals the deterministic
        matrix (paper Section 4.2).
    count_backend:
        Backend for the *observed*-support counting pass (the Eq.-28
        inverse is the same closed form either way).
    """

    def __init__(
        self,
        perturbed: CategoricalDataset,
        gamma: float,
        count_backend: str = "bitmap",
    ):
        self.perturbed = perturbed
        self.gamma = float(gamma)
        self._observed = ExactSupportCounter(perturbed, count_backend)

    @property
    def count_backend(self) -> str:
        """The counting kernel used for the observed supports."""
        return self._observed.count_backend

    def supports(self, itemsets) -> np.ndarray:
        """Eq.-28 closed-form estimates; may be negative for rare sets."""
        itemsets = list(itemsets)
        observed = self._observed.supports(itemsets)
        return reconstruct_gamma_diagonal_supports(
            self.perturbed.schema, observed, itemsets, self.gamma
        )


class _BitMatrixEstimator:
    """Shared observed side of the MASK and C&P estimators.

    Both reconstruct from an ``(N, M_b)`` perturbed bit matrix.  On the
    ``"bitmap"``/``"native"`` backends :meth:`_pattern_counts` packs the
    matrix into :class:`~repro.mining.kernels.TransactionBitmaps` once,
    on first use, and answers each candidate from
    :func:`~repro.mining.kernels.pattern_counts` instead of re-scanning
    the bit matrix; it returns ``None`` on ``"loops"`` and for
    candidates wider than ``MAX_PATTERN_BITS``, where the subclass runs
    its operator's loop-path estimate (the equivalence oracle).
    """

    def __init__(self, schema: Schema, perturbed_bits, count_backend: str):
        perturbed_bits = np.asarray(perturbed_bits)
        if perturbed_bits.ndim != 2 or perturbed_bits.shape[1] != schema.n_boolean:
            raise DataError(
                f"perturbed bits must have shape (N, {schema.n_boolean}), "
                f"got {perturbed_bits.shape}"
            )
        self.schema = schema
        self.perturbed_bits = perturbed_bits
        self.count_backend = resolve_backend(count_backend)
        self._bitmaps: TransactionBitmaps | None = None

    def _pattern_counts(self, positions) -> np.ndarray | None:
        if (
            self.count_backend not in BITMAP_BACKENDS
            or len(positions) > MAX_PATTERN_BITS
        ):
            return None
        if self.perturbed_bits.shape[0] == 0:
            raise DataError("empty perturbed database")
        if self._bitmaps is None:
            self._bitmaps = TransactionBitmaps.from_boolean_matrix(
                self.schema, self.perturbed_bits
            )
        return pattern_counts(self._bitmaps, positions, backend=self.count_backend)


class MaskSupportEstimator(_BitMatrixEstimator):
    """Reconstructed supports from MASK-perturbed boolean data.

    With ``count_backend="bitmap"`` the observed pattern distribution of
    each candidate is computed from packed bit columns (superset
    popcounts + a Möbius transform, see
    :func:`repro.mining.kernels.pattern_counts`) instead of re-scanning
    the ``(N, M_b)`` bit matrix per candidate; the tensor-power solve is
    shared, so estimates are identical.
    """

    def __init__(
        self,
        schema: Schema,
        perturbed_bits: np.ndarray,
        mask: MaskPerturbation,
        count_backend: str = "bitmap",
    ):
        super().__init__(schema, perturbed_bits, count_backend)
        self.mask = mask

    def supports(self, itemsets) -> np.ndarray:
        """Tensor-power reconstruction per candidate (paper Section 7)."""
        itemsets = list(itemsets)
        n_records = self.perturbed_bits.shape[0]
        estimates = np.empty(len(itemsets))
        for i, itemset in enumerate(itemsets):
            positions = itemset.boolean_positions(self.schema)
            observed = self._pattern_counts(positions)
            if observed is None:
                estimates[i] = self.mask.estimate_itemset_support(
                    self.perturbed_bits, positions
                )
            else:
                solved = self.mask.solve_pattern_counts(observed.astype(float))
                estimates[i] = float(solved[-1] / n_records)
        return estimates


class CutAndPasteSupportEstimator(_BitMatrixEstimator):
    """Reconstructed supports from C&P-perturbed boolean data.

    The partial-support system consumes the distribution of per-record
    set-bit counts over the candidate's columns.  With
    ``count_backend="bitmap"`` (or ``"native"``) that histogram is the
    candidate's :func:`repro.mining.kernels.pattern_counts` binned by
    popcount (:func:`repro.mining.kernels.intersection_counts`); with
    ``"loops"`` it is sliced and ``bincount``-ed from the bit matrix.
    The integer histograms are equal and both paths solve the same
    partial-support system (the bitmap path against one matrix per
    itemset length), so estimates are identical across backends.
    """

    def __init__(
        self,
        schema: Schema,
        perturbed_bits: np.ndarray,
        operator: CutAndPastePerturbation,
        count_backend: str = "bitmap",
    ):
        super().__init__(schema, perturbed_bits, count_backend)
        self.operator = operator

    def supports(self, itemsets) -> np.ndarray:
        """Partial-support-system reconstruction per candidate."""
        itemsets = list(itemsets)
        estimates = np.empty(len(itemsets))
        for i, itemset in enumerate(itemsets):
            positions = itemset.boolean_positions(self.schema)
            observed = self._pattern_counts(positions)
            if observed is None:
                estimates[i] = self.operator.estimate_itemset_support(
                    self.perturbed_bits, positions
                )
            else:
                estimates[i] = self.operator.solve_intersection_counts(
                    intersection_counts(observed)
                )
        return estimates
