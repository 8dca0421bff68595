"""Streaming reconstruction and mining front-end.

Everything the miner needs from a gamma-diagonal-perturbed database is
its joint-count vector ``Y``: full-domain reconstruction is
``X̂ = A^{-1} Y`` (paper Eq. 8) and any itemset support over an
attribute subset follows from marginals of ``Y`` through Eq. 28.  The
functions here take the accumulators produced by a
:class:`~repro.pipeline.executor.PerturbationPipeline` and feed them
into the existing solvers, so the full perturb -> reconstruct -> mine
loop runs over datasets larger than memory:

* :func:`reconstruct_stream` -- accumulated ``Y`` through the
  closed-form / least-squares / EM solvers of
  :mod:`repro.core.reconstruction`;
* :func:`mine_stream` -- the end-to-end convenience: chunked
  perturbation, count or bitmap accumulation, and Apriori over
  reconstructed supports.

Support estimation itself is the one path of
:mod:`repro.mining.counting`: the observed-count source
(:class:`~repro.mining.counting.ExactSupportCounter`) counts on a
:class:`JointCountAccumulator` or :class:`BitmapAccumulator` as it does
on a dataset, and
:class:`~repro.mining.counting.GammaDiagonalSupportEstimator` inverts
Eq. 28 on top.  ``AccumulatedSupportEstimator`` and
``BitmapStreamSupportEstimator`` are legacy aliases of that class.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import GammaDiagonalPerturbation
from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.core.reconstruction import clip_counts, reconstruct_counts
from repro.data.schema import Schema
from repro.mining.apriori import AprioriResult, apriori
from repro.mining.counting import GammaDiagonalSupportEstimator
from repro.mining.kernels import validate_backend
from repro.mining.kernels.counting import BITMAP_BACKENDS
from repro.pipeline.accumulator import BitmapAccumulator, JointCountAccumulator
from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE
from repro.pipeline.executor import PerturbationPipeline


def reconstruct_stream(
    accumulator: JointCountAccumulator,
    gamma: float,
    method: str = "solve",
    clip: bool = False,
) -> np.ndarray:
    """Reconstruct original joint counts from accumulated perturbed ones.

    Feeds the accumulator's ``Y`` into
    :func:`repro.core.reconstruction.reconstruct_counts` with the
    gamma-diagonal matrix's O(n) closed form (``method="solve"``), the
    least-squares solver, or the EM estimator.  With ``clip`` the
    standard clip-to-zero postprocessing is applied.
    """
    matrix = GammaDiagonalMatrix(n=accumulator.schema.joint_size, gamma=gamma)
    target = matrix if method == "solve" else matrix.to_dense()
    estimates = reconstruct_counts(target, accumulator.counts, method=method)
    return clip_counts(estimates) if clip else estimates


#: Legacy names: the Eq.-28 estimator counts on accumulators directly.
AccumulatedSupportEstimator = GammaDiagonalSupportEstimator
BitmapStreamSupportEstimator = GammaDiagonalSupportEstimator


def stream_perturbed_counts(
    source,
    engine,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    seed=None,
    dispatch: str = "pickle",
) -> JointCountAccumulator:
    """Perturb a record stream and return its accumulated joint counts."""
    pipeline = PerturbationPipeline(
        engine, chunk_size=chunk_size, workers=workers, dispatch=dispatch
    )
    return pipeline.accumulate(source, seed=seed)


def stream_perturbed_bitmaps(
    source,
    engine,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    seed=None,
    dispatch: str = "pickle",
) -> BitmapAccumulator:
    """Perturb a record stream into accumulated transaction bitmaps."""
    pipeline = PerturbationPipeline(
        engine, chunk_size=chunk_size, workers=workers, dispatch=dispatch
    )
    return pipeline.accumulate_bitmaps(source, seed=seed)


def mine_stream(
    source,
    schema: Schema,
    gamma: float,
    min_support: float,
    engine=None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    seed=None,
    max_length=None,
    count_backend: str = "loops",
    dispatch: str = "pickle",
) -> AprioriResult:
    """Privacy-preserving mining over a chunked record stream.

    Runs DET-GD perturbation (or the supplied ``engine``) through the
    chunked executor, accumulates the perturbed stream, and mines it
    with Apriori over Eq.-28 reconstructed supports.

    ``count_backend`` picks the accumulated representation: ``"loops"``
    (default) folds joint counts -- peak memory is one chunk plus the
    ``(|S_U|,)`` count vector, so ``source`` may be arbitrarily large
    (e.g. :func:`repro.data.io.iter_csv_chunks` or an open ``.frd``
    memory map); ``"bitmap"`` folds packed transaction bitmaps --
    ``O(N * M_b / 8)`` memory, with every mining pass answered by the
    vectorized AND/popcount kernel; ``"native"`` folds the same
    bitmaps and counts them with the compiled threaded kernels
    (falling back to ``"bitmap"`` when the extension is absent).  All
    backends mine identical itemsets for the same seed.
    ``dispatch="shm"`` switches multi-worker runs to zero-copy block
    dispatch (see
    :class:`~repro.pipeline.executor.PerturbationPipeline`).
    """
    if engine is None:
        engine = GammaDiagonalPerturbation(schema, gamma)
    pipeline = PerturbationPipeline(
        engine, chunk_size=chunk_size, workers=workers, dispatch=dispatch
    )
    if validate_backend(count_backend) in BITMAP_BACKENDS:
        accumulated = pipeline.accumulate_bitmaps(source, seed=seed)
    else:
        accumulated = pipeline.accumulate(source, seed=seed)
    estimator = GammaDiagonalSupportEstimator(accumulated, gamma, count_backend)
    return apriori(estimator, schema, min_support, max_length)
