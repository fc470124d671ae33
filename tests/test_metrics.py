import math
from dataclasses import asdict
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import levenshtein_recursive, pearson_direct, wilson_direct
from pmrope.metrics import (
    EvalReport,
    bootstrap_ci,
    duration_accuracy,
    error_rate,
    error_rates,
    pearson_r,
    style_similarity,
    wilson_interval,
)


class TestErrorRate:
    def test_identical_sequences(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_substitution(self):
        assert error_rate(["a", "b", "c"], ["a", "b", "d"]) == pytest.approx(1 / 3)

    def test_can_exceed_one(self):
        assert error_rate([1], [2, 3, 4]) == 3.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            error_rate([], [1])

    def test_empty_hypothesis_is_all_deletions(self):
        assert error_rate([1, 2, 3, 4], []) == 1.0

    def test_random_pairs_match_recursive_oracle(self):
        rng = np.random.default_rng(0)
        # an empty hypothesis and ones longer than the reference, then seeded
        # pairs: short ones over a small alphabet, and decode-sized ones
        pairs = [([1, 2, 3], []), ([1], [1, 2, 3, 4]), ([2, 0], [0, 2, 2, 0, 1])]
        for _ in range(300):
            pairs.append((list(rng.integers(0, 4, rng.integers(1, 9))),
                          list(rng.integers(0, 4, rng.integers(0, 13)))))
        for _ in range(20):
            pairs.append((list(rng.integers(0, 8, rng.integers(1, 80))),
                          list(rng.integers(0, 8, rng.integers(0, 100)))))
        for ref, hyp in pairs:
            assert error_rate(ref, hyp) == levenshtein_recursive(ref, hyp) / len(ref)

    def test_triangle_style_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ref = list(rng.integers(0, 3, rng.integers(1, 7)))
            hyp = list(rng.integers(0, 3, rng.integers(0, 7)))
            assert error_rate(ref, hyp) <= (len(ref) + len(hyp)) / len(ref)


@st.composite
def ragged_pairs(draw):
    """(references, hypotheses) of one token kind, int or str: references of
    1 token or more, hypotheses empty, shorter or longer than their reference."""
    tokens = draw(st.sampled_from([st.integers(0, 3), st.sampled_from("abc"),
                                   st.integers(-2**62, 2**62)]))
    n = draw(st.integers(1, 8))
    refs = draw(st.lists(st.lists(tokens, min_size=1, max_size=12), min_size=n, max_size=n))
    hyps = draw(st.lists(st.lists(tokens, max_size=16), min_size=n, max_size=n))
    return refs, hyps


class TestErrorRates:
    @settings(max_examples=300, deadline=None)
    @given(ragged_pairs())
    def test_equals_error_rate_pair_by_pair(self, pairs):
        refs, hyps = pairs
        rates = error_rates(refs, hyps)
        assert rates == [error_rate(ref, hyp) for ref, hyp in zip(refs, hyps)]
        assert rates == [levenshtein_recursive(ref, hyp) / len(ref)
                         for ref, hyp in zip(refs, hyps)]

    @pytest.mark.parametrize("at", [0, 2])
    def test_an_empty_reference_anywhere_is_rejected(self, at):
        refs = [[1, 2], [3], [4, 5, 6]]
        refs[at] = []
        with pytest.raises(ValueError, match="reference must be nonempty"):
            error_rates(refs, [[1], [], [4, 4]])

    def test_no_pairs_no_rates(self):
        assert error_rates([], []) == []

    def test_pair_counts_must_match(self):
        with pytest.raises(ValueError, match="2 references but 1 hypotheses"):
            error_rates([[1], [2]], [[1]])


class TestDurationAccuracy:
    def test_exact_match(self):
        assert duration_accuracy([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_boundary_is_inclusive(self):
        assert duration_accuracy([1.10 * 7.3], [7.3]) == 1.0

    def test_half_within(self):
        assert duration_accuracy([9.0, 12.0], [10.0, 10.0]) == 0.5

    def test_rescaling_invariance(self):
        gen = [9.0, 12.0, 10.5]
        target = [10.0, 10.0, 10.0]
        scaled = duration_accuracy([g * 17.0 for g in gen], [t * 17.0 for t in target])
        assert duration_accuracy(gen, target) == scaled

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            duration_accuracy([1.0], [1.0, 2.0])

    def test_nonpositive_target(self):
        with pytest.raises(ValueError):
            duration_accuracy([1.0], [0.0])

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        gen = rng.uniform(0.1, 3.0, 50)
        target = rng.uniform(0.1, 3.0, 50)
        assert 0.0 <= duration_accuracy(gen, target) <= 1.0


class TestBootstrapCI:
    def test_constant_sample_has_zero_width(self):
        report = bootstrap_ci([0.5] * 20)
        assert report.ci_low == report.ci_high == report.mean == 0.5

    def test_seed_determinism_is_bitwise(self):
        values = list(np.random.default_rng(3).normal(0, 1, 40))
        a = bootstrap_ci(values, seed=42)
        b = bootstrap_ci(values, seed=42)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_balanced_binary_matches_normal_approximation(self):
        values = [0.0, 1.0] * 50  # n=100, sd 0.5, se 0.05
        report = bootstrap_ci(values)
        half_width = (report.ci_high - report.ci_low) / 2
        assert half_width == pytest.approx(1.96 * 0.05, abs=0.02)

    def test_interval_contains_mean(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            report = bootstrap_ci(list(rng.normal(0, 1, 30)), seed=trial)
            assert report.ci_low <= report.mean <= report.ci_high

    def test_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(5)
        wins = 0
        trials = 40
        for trial in range(trials):
            small = rng.normal(0, 1, 25)
            large = rng.normal(0, 1, 400)
            w_small = bootstrap_ci(small, seed=trial).ci_high - bootstrap_ci(small, seed=trial).ci_low
            w_large = bootstrap_ci(large, seed=trial).ci_high - bootstrap_ci(large, seed=trial).ci_low
            wins += w_large < w_small
        assert wins / trials >= 0.95

    def test_report_fields(self):
        report = bootstrap_ci([1.0, 2.0], resamples=100, seed=9, metric="thing")
        assert report.method == "bootstrap"
        assert report.n == 2 and report.resamples == 100 and report.seed == 9
        assert report.metric == "thing"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])


class TestWilson:
    Z95 = NormalDist().inv_cdf(0.975)

    def test_zero_successes(self):
        report = wilson_interval(0, 50)
        assert report.ci_low == 0.0
        assert report.ci_high > 0.0

    @pytest.mark.parametrize("successes", [39, 40])
    def test_half_width_near_reported_value(self, successes):
        report = wilson_interval(successes, 50)
        half_width = (report.ci_high - report.ci_low) / 2
        assert half_width == pytest.approx(0.11, abs=0.02)

    @pytest.mark.parametrize("successes,n", [(25, 50), (1, 7), (49, 50), (10, 100)])
    def test_matches_direct_formula(self, successes, n):
        report = wilson_interval(successes, n)
        lo, hi = wilson_direct(successes, n, self.Z95)
        assert report.ci_low == pytest.approx(max(0.0, lo), abs=1e-9)
        assert report.ci_high == pytest.approx(min(1.0, hi), abs=1e-9)

    def test_symmetric_at_half(self):
        report = wilson_interval(25, 50)
        assert (report.ci_low + report.ci_high) / 2 == pytest.approx(0.5, abs=1e-12)

    def test_always_inside_unit_interval(self):
        for n in (1, 3, 50, 500):
            for successes in (0, n // 2, n):
                report = wilson_interval(successes, n)
                assert 0.0 <= report.ci_low <= report.ci_high <= 1.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)


class TestStyleSimilarity:
    ALPHABETS = [range(0, 16), range(16, 32), range(32, 48), range(48, 64)]

    def test_same_alphabet_is_one(self):
        assert style_similarity([1, 2, 3], [5, 5, 9], self.ALPHABETS) == pytest.approx(1.0)

    def test_disjoint_alphabets_are_zero(self):
        assert style_similarity([1, 2, 3], [17, 18], self.ALPHABETS) == 0.0

    def test_half_half_mixture(self):
        sim = style_similarity([1, 2], [3, 3, 17, 17], self.ALPHABETS)
        assert sim == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_symmetry(self):
        a, b = [1, 17, 17], [2, 2, 40]
        assert style_similarity(a, b, self.ALPHABETS) == pytest.approx(
            style_similarity(b, a, self.ALPHABETS), abs=1e-12)

    def test_scale_invariance_in_counts(self):
        a, b = [1, 17], [2, 2, 33]
        assert style_similarity(a * 5, b, self.ALPHABETS) == pytest.approx(
            style_similarity(a, b, self.ALPHABETS), abs=1e-12)

    def test_out_of_alphabet_tokens_ignored(self):
        with_specials = style_similarity([1, 2, 64, 68], [3, 64], self.ALPHABETS)
        without = style_similarity([1, 2], [3], self.ALPHABETS)
        assert with_specials == pytest.approx(without, abs=1e-12)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            style_similarity([], [1], self.ALPHABETS)


class TestPearson:
    def test_affine_relation_is_one(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pearson_r(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        x = [1.0, 2.0, 5.0]
        assert pearson_r(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_fixed_points_match_direct_formula(self):
        x = [0.3, 1.7, 2.2, 4.9, 6.1]
        y = [1.1, 0.4, 2.8, 3.0, 5.5]
        assert pearson_r(x, y) == pytest.approx(pearson_direct(x, y), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestEvalReport:
    def test_json_dict_has_exactly_the_schema_fields(self):
        report = EvalReport("m", 0.5, 0.4, 0.6, 10, "bootstrap", 100, 42)
        assert set(asdict(report)) == {
            "metric", "mean", "ci_low", "ci_high", "n", "method", "resamples", "seed",
        }
