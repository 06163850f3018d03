"""NMI and permutation-minimized misclustering, checked against brute force."""

import itertools

import numpy as np
import pytest

from blockfactor.errors import InvalidInputError, LengthMismatchError, TooManyLabelsError
from blockfactor.metrics import (
    NMI_VARIANTS,
    confusion_table,
    misclustered_count,
    misclustered_nodes,
    misclustering_rate,
    nmi,
)


def hamming_search(truth, cand):
    """Direct oracle: try every label permutation on the raw vectors."""
    k = int(max(truth.max(), cand.max())) + 1
    best = len(truth) + 1
    for perm in itertools.permutations(range(k)):
        relabeled = np.array(perm)[cand]
        best = min(best, int((relabeled != truth).sum()))
    return best / len(truth)


class TestConfusionTable:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 4, size=50)
        table = confusion_table(a, b)
        assert table.sum() == 50
        assert table.shape == (a.max() + 1, b.max() + 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion_table([0, 1], [0, 1, 0])


class TestNmi:
    def test_identical_partitions(self):
        a = np.array([0, 0, 1, 1, 2])
        assert nmi(a, a) == 1.0

    def test_relabeled_partition_still_one(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert nmi(a, b) == pytest.approx(1.0)

    def test_independent_crossing_is_zero(self):
        # confusion table is uniform, so I(a;b) = 0 exactly
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_both_single_class(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0

    def test_one_single_class(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_normalizer_reads_zero(self):
        # "min" divides by the single-class side's entropy, which is 0
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1], variant="min") == 0.0

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 4, size=n)
            v = nmi(a, b)
            assert v == pytest.approx(nmi(b, a), abs=1e-12)
            perm = rng.permutation(4)
            assert v == pytest.approx(nmi(a, perm[b]), abs=1e-12)
            assert 0.0 <= v <= 1.0

    def test_variant_ordering(self):
        # normalizers satisfy min <= sqrt <= mean <= max
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.integers(0, 3, size=30)
            b = rng.integers(0, 2, size=30)
            v_min = nmi(a, b, "min")
            v_sqrt = nmi(a, b, "sqrt")
            v_sum = nmi(a, b, "sum")
            v_max = nmi(a, b, "max")
            assert v_min + 1e-12 >= v_sqrt >= v_sum - 1e-12
            assert v_sum + 1e-12 >= v_max

    def test_variants_are_the_four_normalizations(self):
        assert NMI_VARIANTS == ("sum", "sqrt", "max", "min")

    def test_avg_alias_is_refused(self):
        with pytest.raises(InvalidInputError, match="unknown NMI variant 'avg'"):
            nmi([0, 1, 1, 2], [0, 0, 1, 2], "avg")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1], "geometric")

    @pytest.mark.parametrize("a", [[[0, 1]], [-1, 0]])
    def test_malformed_partition_is_a_typed_error(self, a):
        with pytest.raises(InvalidInputError):
            nmi(a, [0, 1])

    def test_unknown_variant_on_single_class_partitions(self):
        with pytest.raises(InvalidInputError, match="bogus"):
            nmi([0, 0, 0], [1, 1, 1], variant="bogus")


class TestMisclusteringRate:
    def test_equal_partitions(self):
        a = np.array([0, 1, 2, 1])
        rate, perm = misclustering_rate(a, a)
        assert rate == 0.0
        assert perm == (0, 1, 2)

    def test_swapped_labels_zero(self):
        rate, perm = misclustering_rate([0, 0, 1, 1], [1, 1, 0, 0])
        assert rate == 0.0
        assert perm == (1, 0)

    def test_reported_permutation_identifies_misfits(self):
        truth = np.array([0, 0, 0, 1, 1, 1])
        cand = np.array([1, 1, 1, 0, 0, 1])  # node 5 crosses over
        rate, _ = misclustering_rate(truth, cand)
        assert rate == pytest.approx(1 / 6)
        assert misclustered_nodes(truth, cand).tolist() == [5]

    def test_matches_direct_hamming_search(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            truth = rng.integers(0, 3, size=n)
            cand = rng.integers(0, 3, size=n)
            rate, _ = misclustering_rate(truth, cand)
            assert rate == pytest.approx(hamming_search(truth, cand), abs=1e-12)

    def test_invariant_under_truth_relabeling(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            truth = rng.integers(0, 3, size=20)
            cand = rng.integers(0, 3, size=20)
            rate, _ = misclustering_rate(truth, cand)
            perm = rng.permutation(3)
            rate2, _ = misclustering_rate(perm[truth], cand)
            assert rate == pytest.approx(rate2, abs=1e-12)

    def test_zero_iff_equal_up_to_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            truth = rng.integers(0, 3, size=12)
            perm = rng.permutation(3)
            rate, _ = misclustering_rate(truth, perm[truth])
            assert rate == 0.0
            cand = truth.copy()
            cand[0] = (cand[0] + 1) % 3
            if len(np.unique(truth)) == 3:  # all labels occupied: one flip must cost
                rate2, _ = misclustering_rate(truth, cand)
                assert rate2 > 0.0

    def test_too_many_labels(self):
        with pytest.raises(TooManyLabelsError):
            misclustering_rate(np.arange(9), np.arange(9))

    def test_eight_labels_supported(self):
        rate, _ = misclustering_rate(np.arange(8), np.arange(8))
        assert rate == 0.0


class TestMisclusteredCount:
    def test_integral_and_consistent(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            truth = rng.integers(0, 3, size=n)
            cand = rng.integers(0, 3, size=n)
            count = misclustered_count(truth, cand)
            rate, _ = misclustering_rate(truth, cand)
            assert count == round(rate * n)
            assert abs(count - rate * n) < 1e-9

    def test_self_is_zero(self):
        a = np.array([0, 1, 0, 2])
        assert misclustered_count(a, a) == 0


class TestEmptyPartitions:
    @pytest.mark.parametrize(
        "metric", [confusion_table, nmi, misclustering_rate, misclustered_count, misclustered_nodes]
    )
    def test_typed_error(self, metric):
        with pytest.raises(InvalidInputError, match="nonempty"):
            metric([], [])
