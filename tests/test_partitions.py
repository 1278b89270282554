import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from tvdpm.partitions import (
    CountsVector,
    enumerate_partitions,
    esf_log_prob,
    sample_categorical,
    sample_log_categorical,
    sample_log_categorical_rows,
)

from .oracles import (
    counts_from_box_sizes,
    counts_of,
    crp_partition_law,
    inline_categorical,
    num_boxes,
    polya_urn_sample,
    tv,
    validate_allocation,
)


def empirical_partition_law(samples):
    from collections import Counter

    freq = Counter(counts_of(s).box_sizes() for s in samples)
    n = len(samples)
    return {k: v / n for k, v in freq.items()}


class TestCountsVector:
    def test_valid(self):
        cv = CountsVector((1, 1, 0))
        assert cv.n == 3 and num_boxes(cv) == 2
        assert cv.box_sizes() == (2, 1)

    def test_invalid_sum(self):
        with pytest.raises(ValueError):
            CountsVector((2, 1, 0))

    def test_from_box_sizes(self):
        assert counts_from_box_sizes([3, 1, 1]).counts == (2, 0, 1, 0, 0)


class TestEsfLogProb:
    def test_n1_is_certain(self):
        assert esf_log_prob(CountsVector((1,)), 2.7) == pytest.approx(0.0)

    def test_n3_values_match_crp_enumeration(self):
        # oracle: enumerate all seatings of 3 customers at theta=1
        law = crp_partition_law(3, 1.0)
        assert law[(1, 1, 1)] == pytest.approx(1 / 6)
        assert law[(3,)] == pytest.approx(1 / 3)
        assert law[(2, 1)] == pytest.approx(1 / 2)
        assert esf_log_prob(CountsVector((3, 0, 0)), 1.0) == pytest.approx(math.log(1 / 6))
        assert esf_log_prob(CountsVector((0, 0, 1)), 1.0) == pytest.approx(math.log(1 / 3))

    def test_hand_evaluated_formula(self):
        # n=3, theta=1, a=(3,0,0): 3! / (1*2*3) * (1/1)^3 / 3! = 1/6
        assert math.exp(esf_log_prob(CountsVector((3, 0, 0)), 1.0)) == pytest.approx(1 / 6)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    def test_normalization(self, n, theta):
        total = sum(math.exp(esf_log_prob(p, theta)) for p in enumerate_partitions(n))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumerated_crp_law(self):
        for theta in (0.5, 2.0):
            law = crp_partition_law(5, theta)
            for p in enumerate_partitions(5):
                assert math.exp(esf_log_prob(p, theta)) == pytest.approx(
                    law[p.box_sizes()], rel=1e-10
                )

    def test_large_n_no_overflow(self):
        cv = counts_from_box_sizes([2000, 1000])
        assert np.isfinite(esf_log_prob(cv, 1.5))

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            esf_log_prob(CountsVector((1,)), 0.0)

    @pytest.mark.parametrize("theta", [0.3, 1.5, 40.0])
    def test_log_gamma_matches_scipy(self, theta, rng):
        # the formula with scipy's gammaln; the terms reach lgamma(n + 1)
        # and cancel, so the tolerance is relative to that largest term
        def by_gammaln(a):
            n = a.n
            out = gammaln(n + 1) - (gammaln(theta + n) - gammaln(theta))
            for j, aj in enumerate(a.counts, start=1):
                if aj:
                    out += aj * (np.log(theta) - np.log(j)) - gammaln(aj + 1)
            return float(out)

        cases = [counts_from_box_sizes(s) for s in ([2000, 1000], [1] * 3000, [3000], [1])]
        for n in (2, 7, 25, 300, 2500, 6000):
            cases.append(counts_of(polya_urn_sample(n, theta, rng)))
        for a in cases:
            scale = float(gammaln(a.n + 1 + theta)) + 1.0
            assert esf_log_prob(a, theta) == pytest.approx(by_gammaln(a), rel=1e-13, abs=1e-13 * scale)


class TestEnumeratePartitions:
    def test_small_counts(self):
        assert [p.counts for p in enumerate_partitions(1)] == [(1,)]
        assert {p.counts for p in enumerate_partitions(3)} == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}

    def test_p5_has_seven(self):
        assert len(enumerate_partitions(5)) == 7

    def test_lexicographic_order(self):
        parts = [p.counts for p in enumerate_partitions(6)]
        assert parts == sorted(parts)

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            enumerate_partitions(26)


class TestPolyaUrnSample:
    def test_first_customer(self, rng):
        assert polya_urn_sample(1, 5.0, rng) == [1]

    def test_second_seat_probability(self, rng):
        # theta=1: P(c_2 = 1) = 1/2
        n_mc = 20_000
        hits = sum(polya_urn_sample(2, 1.0, rng)[1] == 1 for _ in range(n_mc))
        se = math.sqrt(0.25 / n_mc)
        assert abs(hits / n_mc - 0.5) < 3 * se

    def test_sampler_matches_esf_n5(self, rng):
        n_mc = 100_000
        emp = empirical_partition_law([polya_urn_sample(5, 2.0, rng) for _ in range(n_mc)])
        exact = {p.box_sizes(): math.exp(esf_log_prob(p, 2.0)) for p in enumerate_partitions(5)}
        assert tv(emp, exact) < 0.01

    def test_sampler_matches_esf_n6(self, rng):
        n_mc = 100_000
        emp = empirical_partition_law([polya_urn_sample(6, 1.0, rng) for _ in range(n_mc)])
        exact = {p.box_sizes(): math.exp(esf_log_prob(p, 1.0)) for p in enumerate_partitions(6)}
        assert tv(emp, exact) < 0.01

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 40), theta=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_labels_canonical(self, n, theta, seed):
        labels = polya_urn_sample(n, theta, np.random.default_rng(seed))
        validate_allocation(labels)


class TestCountsOf:
    def test_examples(self):
        assert counts_of([1, 1, 2]).counts == (1, 1, 0)
        assert counts_of([1, 2, 3]).counts == (3, 0, 0)
        assert counts_of([1, 1, 1]).counts == (0, 0, 1)

    def test_arbitrary_labels(self):
        assert counts_of(["a", "b", "a"]).counts == (1, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            counts_of([])

    @settings(max_examples=50, deadline=None)
    @given(labels=st.lists(st.integers(1, 6), min_size=1, max_size=12))
    def test_respects_group_sizes(self, labels):
        cv = counts_of(labels)
        assert cv.n == len(labels)
        assert num_boxes(cv) == len(set(labels))


class TestValidateAllocation:
    def test_good(self):
        validate_allocation([1, 1, 2, 3, 2])

    def test_bad(self):
        with pytest.raises(ValueError):
            validate_allocation([1, 3])


class TestCategorical:
    def test_matches_inline_loop(self):
        gen = np.random.default_rng(31)
        cases = [[1.0], [0.0], [0.0, 0.0], [0.0, 2.0, 0.0, 1.5], [3, 1, 0, 2.5]]
        for _ in range(300):
            size = int(gen.integers(1, 12))
            w = gen.exponential(size=size) * (gen.random(size) < 0.7)
            cases.append([float(x) for x in w])
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        for weights in cases:
            for _ in range(10):
                assert sample_categorical(weights, a) == inline_categorical(weights, b)
                assert a.bit_generator.state == b.bit_generator.state

    def test_log_scores_shift_by_max(self):
        scores = [-1e3, 2.0, math.log(3.0) + 2.0, -math.inf, 1.5]
        probs = [math.exp(s - max(scores)) for s in scores]
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            i, log_norm = sample_log_categorical(scores, a)
            assert i == inline_categorical(probs, b)
            assert log_norm == pytest.approx(float(logsumexp(scores)), rel=1e-15, abs=0)


class _Fixed:
    """A generator stand-in whose uniforms are all `u`."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class TestCategoricalRows:
    """`sample_log_categorical_rows` against `sample_log_categorical` row by
    row: each row holds a scalar draw's scores at increasing columns, its
    last score in the last column, and -inf padding elsewhere."""

    @staticmethod
    def _padded(rows, width, gen):
        matrix = np.full((len(rows), width), -math.inf)
        columns = []
        for r, scores in enumerate(rows):
            cols = sorted(gen.choice(width - 1, size=len(scores) - 1, replace=False).tolist()) + [width - 1]
            matrix[r, cols] = scores
            columns.append(cols)
        return matrix, columns

    def test_rows_equal_scalar_draws(self):
        gen = np.random.default_rng(17)
        width = 12
        rows = [[-3.0], [0.5, -math.inf, 2.0], [-math.inf, 1.0]]  # new box only; zero-weight cells
        for _ in range(60):
            scores = gen.normal(-20.0, 4.0, size=int(gen.integers(1, width + 1)))
            scores[gen.random(len(scores)) < 0.1] = -math.inf
            scores[-1] = gen.normal(-20.0, 4.0)
            rows.append(scores.tolist())
        matrix, columns = self._padded(rows, width, gen)
        # one rng.random(R) per call against R scalar draws, row by row
        fast, slow = np.random.default_rng(100), np.random.default_rng(100)
        for _ in range(30):
            picks, log_norms = sample_log_categorical_rows(matrix, fast)
            for r, (scores, cols) in enumerate(zip(rows, columns)):
                i, log_norm = sample_log_categorical(scores, slow)
                assert picks[r] == cols[i]
                assert log_norms[r] == pytest.approx(log_norm, rel=1e-15, abs=0)
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_uniform_at_the_rounding_edge_takes_the_last_index(self):
        # 1 - 2**-53 times a total of 1 + 2**-52 rounds to 1.0, which is not
        # below the first running sum: the last index wins in both forms
        u = 1.0 - 2.0**-53
        scores = [0.0, math.log(2.0**-52)]
        matrix = np.array([[0.0, -math.inf, math.log(2.0**-52)]])
        assert sample_log_categorical(scores, _Fixed(u))[0] == 1
        picks, _ = sample_log_categorical_rows(matrix, _Fixed(u))
        assert picks.tolist() == [2]

    def test_row_of_nothing_takes_the_last_index(self):
        # every cell -inf: the normaliser is nan and the pick the last
        # index, in both forms
        i, log_norm = sample_log_categorical([-math.inf, -math.inf], _Fixed(0.5))
        picks, log_norms = sample_log_categorical_rows(np.full((1, 4), -math.inf), _Fixed(0.5))
        assert (i, picks.tolist()) == (1, [3])
        assert math.isnan(log_norm) and math.isnan(log_norms[0])
