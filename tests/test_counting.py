"""Tests for repro.mining.counting (support sources / estimators)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cut_and_paste import CutAndPastePerturbation
from repro.baselines.mask import MaskPerturbation
from repro.core.engine import GammaDiagonalPerturbation
from repro.data.census import census_schema, generate_census
from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, FrappError, MiningError
from repro.mechanisms import registry
from repro.mining.counting import (
    CutAndPasteSupportEstimator,
    ExactSupportCounter,
    GammaDiagonalSupportEstimator,
    MaskSupportEstimator,
)
from repro.mining.itemsets import Itemset, all_items


class TestExactCounter:
    def test_singleton_supports(self, tiny_dataset):
        counter = ExactSupportCounter(tiny_dataset)
        supports = counter.supports([Itemset.of((0, 0)), Itemset.of((0, 1))])
        assert supports.tolist() == [5 / 8, 3 / 8]

    def test_pair_supports(self, tiny_dataset):
        counter = ExactSupportCounter(tiny_dataset)
        supports = counter.supports([Itemset.of((0, 0), (1, 1))])
        assert supports[0] == pytest.approx(3 / 8)

    def test_all_items_sum_per_attribute(self, survey_dataset):
        """Supports of an attribute's singletons sum to one."""
        counter = ExactSupportCounter(survey_dataset)
        items = all_items(survey_dataset.schema)
        supports = counter.supports(items)
        by_attr = {}
        for item, s in zip(items, supports):
            by_attr.setdefault(item.attributes[0], []).append(s)
        for values in by_attr.values():
            assert sum(values) == pytest.approx(1.0)

    def test_matches_naive_masking(self, survey_dataset, rng):
        counter = ExactSupportCounter(survey_dataset)
        itemset = Itemset.of((0, 1), (2, 0))
        expected = np.mean(
            (survey_dataset.column(0) == 1) & (survey_dataset.column(2) == 0)
        )
        assert counter.supports([itemset])[0] == pytest.approx(expected)

    def test_empty_dataset_rejected(self, tiny_schema):
        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        with pytest.raises(MiningError):
            ExactSupportCounter(empty).supports([Itemset.of((0, 0))])


class TestGammaDiagonalEstimator:
    def test_estimates_track_truth(self, survey_schema, survey_dataset):
        gamma = 20.0
        perturbed = GammaDiagonalPerturbation(survey_schema, gamma).perturb(
            survey_dataset, seed=0
        )
        estimator = GammaDiagonalSupportEstimator(perturbed, gamma)
        counter = ExactSupportCounter(survey_dataset)
        itemsets = [
            Itemset.of((0, 0)),
            Itemset.of((0, 0), (2, 1)),
            Itemset.of((0, 0), (1, 0), (2, 1)),
        ]
        estimates = estimator.supports(itemsets)
        truth = counter.supports(itemsets)
        assert np.allclose(estimates, truth, atol=0.06)

    def test_estimates_may_be_negative(self, survey_schema, survey_dataset):
        """Rare itemsets can reconstruct below zero -- by design."""
        gamma = 2.0  # heavy perturbation
        perturbed = GammaDiagonalPerturbation(survey_schema, gamma).perturb(
            survey_dataset, seed=1
        )
        estimator = GammaDiagonalSupportEstimator(perturbed, gamma)
        itemsets = [
            Itemset(zip((0, 1, 2), values))
            for values in [(2, 0, 0), (2, 1, 0), (1, 1, 1), (2, 0, 1)]
        ]
        estimates = estimator.supports(itemsets)
        assert np.isfinite(estimates).all()

    def test_full_domain_estimates_sum_to_one(self, survey_schema, survey_dataset):
        """Estimates over a complete sub-domain partition sum to 1."""
        gamma = 10.0
        perturbed = GammaDiagonalPerturbation(survey_schema, gamma).perturb(
            survey_dataset, seed=2
        )
        estimator = GammaDiagonalSupportEstimator(perturbed, gamma)
        itemsets = [Itemset.of((1, v)) for v in range(2)]
        assert estimator.supports(itemsets).sum() == pytest.approx(1.0)


class TestMaskEstimator:
    def test_estimates_track_truth(self, survey_schema, survey_dataset):
        mask = MaskPerturbation(survey_schema, p=0.9)
        bits = mask.perturb(survey_dataset, seed=3)
        estimator = MaskSupportEstimator(survey_schema, bits, mask)
        counter = ExactSupportCounter(survey_dataset)
        itemsets = [Itemset.of((0, 0)), Itemset.of((0, 0), (1, 1))]
        assert np.allclose(
            estimator.supports(itemsets), counter.supports(itemsets), atol=0.05
        )

    def test_shape_validation(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.9)
        with pytest.raises(DataError):
            MaskSupportEstimator(survey_schema, np.zeros((5, 3)), mask)


class TestCutAndPasteEstimator:
    def test_estimates_track_truth(self, survey_schema, survey_dataset):
        operator = CutAndPastePerturbation(survey_schema, max_cut=3, rho=0.2)
        bits = operator.perturb(survey_dataset, seed=4)
        estimator = CutAndPasteSupportEstimator(survey_schema, bits, operator)
        counter = ExactSupportCounter(survey_dataset)
        itemsets = [Itemset.of((0, 0)), Itemset.of((0, 0), (2, 1))]
        assert np.allclose(
            estimator.supports(itemsets), counter.supports(itemsets), atol=0.05
        )

    def test_shape_validation(self, survey_schema):
        operator = CutAndPastePerturbation(survey_schema, max_cut=3, rho=0.2)
        with pytest.raises(DataError):
            CutAndPasteSupportEstimator(survey_schema, np.zeros((5, 3)), operator)


# ----------------------------------------------------------------------
# the supports() input contract, for every support source
# ----------------------------------------------------------------------

#: Factory arguments for registered mechanisms that take no ``gamma``.
_NON_GAMMA_PARAMS = {
    "additive-noise": {"scale": 1.5},
    "composite": {
        "parts": [
            {"name": "det-gd", "n_attributes": 3, "params": {"gamma": 19.0}},
            {"name": "ran-gd", "n_attributes": 3, "params": {"gamma": 19.0}},
        ]
    },
}


def _paper_mechanisms():
    """Every registered mechanism that admits the CENSUS schema."""
    found = []
    for name in registry.available():
        params = _NON_GAMMA_PARAMS.get(name, {"gamma": 19.0})
        try:
            mechanism = registry.create(name, census_schema(), **params)
        except FrappError:
            continue  # e.g. WARNER needs a single binary attribute
        found.append(pytest.param(mechanism, id=name))
    return found


@pytest.fixture(scope="module")
def census_sample():
    return generate_census(400, seed=11)


def _contract_itemsets():
    return [
        Itemset.of((0, 1)),
        Itemset.of((5, 0)),
        Itemset.of((0, 0), (3, 2)),
        Itemset.of((1, 1), (2, 0), (4, 1)),
        Itemset.of((4, 0), (5, 1)),
    ]


def _assert_input_contract(source):
    itemsets = _contract_itemsets()
    # The generator goes first, so a source that exhausts it before
    # counting cannot be rescued by a reused result buffer.
    from_generator = source.supports(itemset for itemset in itemsets)
    expected = source.supports(itemsets)
    assert expected.shape == (len(itemsets),)
    assert np.array_equal(from_generator, expected)
    assert np.array_equal(source.supports(tuple(itemsets)), expected)
    assert np.array_equal(source.supports(iter(itemsets)), expected)
    doubled = source.supports(itemsets + itemsets[::-1])
    assert np.array_equal(doubled, np.concatenate([expected, expected[::-1]]))
    assert source.supports([]).shape == (0,)
    assert source.supports(iter(())).shape == (0,)


class TestSupportsInputContract:
    """Lists, tuples, generators and duplicates give identical supports."""

    @pytest.mark.parametrize("backend", ["loops", "bitmap"])
    def test_exact_counter(self, census_sample, backend):
        _assert_input_contract(ExactSupportCounter(census_sample, backend))

    @pytest.mark.parametrize("mechanism", _paper_mechanisms())
    def test_mechanism_estimator(self, census_sample, mechanism):
        _assert_input_contract(mechanism.build_estimator(census_sample, seed=3))


# ----------------------------------------------------------------------
# batch shape: a mixed batch answers like its itemsets one at a time
# ----------------------------------------------------------------------
def _batch_pool():
    """Itemsets of lengths 1-3 over CENSUS, for shuffled mixed batches."""
    return all_items(census_schema()) + _contract_itemsets() + [
        Itemset.of((0, 0), (1, 1)),
        Itemset.of((0, 0), (1, 1), (3, 0)),
        Itemset.of((2, 4), (3, 1), (5, 0)),
        Itemset.of((4, 1), (5, 1)),
    ]


@pytest.fixture(scope="module")
def batch_sources():
    from repro.mechanisms.base import MarginalInversionEstimator

    sample = generate_census(400, seed=11)
    sources = {
        f"exact-{backend}": ExactSupportCounter(sample, backend)
        for backend in ("bitmap", "loops", "native")
    }
    for name in ("det-gd", "mask", "c&p"):
        mechanism = registry.create(name, census_schema(), gamma=19.0)
        sources[name] = mechanism.build_estimator(sample, seed=3)
    for name in ("additive-noise", "composite"):
        mechanism = registry.create(name, census_schema(), **_NON_GAMMA_PARAMS[name])
        sources[name] = mechanism.build_estimator(sample, seed=3)
        assert isinstance(sources[name], MarginalInversionEstimator)
    return sources


_POOL = _batch_pool()


class TestBatchShape:
    """Shuffled, mixed-length batches with duplicates, as list and generator."""

    @pytest.mark.parametrize(
        "name",
        [
            "exact-bitmap",
            "exact-loops",
            "exact-native",
            "det-gd",
            "mask",
            "c&p",
            "additive-noise",
            "composite",
        ],
    )
    @settings(max_examples=10, deadline=None)
    @given(
        batch=st.lists(st.sampled_from(_POOL), min_size=1, max_size=20).flatmap(
            lambda picked: st.permutations(picked + picked[: len(picked) // 2])
        )
    )
    def test_batch_equals_one_at_a_time(self, batch_sources, name, batch):
        source = batch_sources[name]
        one_at_a_time = np.concatenate([source.supports([its]) for its in batch])
        np.testing.assert_array_equal(source.supports(batch), one_at_a_time)
        np.testing.assert_array_equal(
            source.supports(its for its in batch), one_at_a_time
        )


# ----------------------------------------------------------------------
# one observed-count source, and the legacy estimator names
# ----------------------------------------------------------------------
class TestCountSource:
    """Accumulators count exactly like the dataset they were folded from."""

    @pytest.mark.parametrize("backend", ["loops", "bitmap"])
    def test_accumulators_match_dataset(self, census_sample, backend):
        from repro.pipeline import BitmapAccumulator, JointCountAccumulator

        schema = census_sample.schema
        itemsets = all_items(schema) + _contract_itemsets()
        expected = ExactSupportCounter(census_sample, backend).supports(itemsets)
        for accumulator in (
            JointCountAccumulator(schema).update(census_sample),
            BitmapAccumulator(schema).update(census_sample),
        ):
            counter = ExactSupportCounter(accumulator, backend)
            assert np.array_equal(counter.supports(itemsets), expected)
            for attrs in [(0,), (1, 3), (0, 2, 5)]:
                assert np.array_equal(
                    counter.subset_counts(attrs), census_sample.subset_counts(attrs)
                )

    def test_accumulators_pin_their_backend(self):
        from repro.pipeline import BitmapAccumulator, JointCountAccumulator

        schema = census_schema()
        joint = ExactSupportCounter(JointCountAccumulator(schema), "bitmap")
        assert joint.count_backend == "loops"
        bitmaps = ExactSupportCounter(BitmapAccumulator(schema), "loops")
        assert bitmaps.count_backend == "bitmap"


class TestRetiredNames:
    """Legacy estimator names are the surviving classes, not subclasses."""

    def test_aliases_are_the_surviving_classes(self):
        import repro
        from repro.pipeline import streaming

        assert streaming.AccumulatedSupportEstimator is GammaDiagonalSupportEstimator
        assert streaming.BitmapStreamSupportEstimator is GammaDiagonalSupportEstimator
        assert repro.AccumulatedSupportEstimator is GammaDiagonalSupportEstimator
        assert repro.BitmapStreamSupportEstimator is GammaDiagonalSupportEstimator
        assert MaskSupportEstimator is CutAndPasteSupportEstimator
        # Each surviving class defines `supports` itself.
        for cls in (GammaDiagonalSupportEstimator, MaskSupportEstimator):
            assert "supports" in cls.__dict__
