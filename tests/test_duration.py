import math

import pytest

from pmrope.duration import (
    DEFAULT_RATES,
    DurationEstimate,
    estimate_from_rate,
    estimate_from_reference,
    target_token_count,
)


class TestReferenceRatio:
    def test_formula_arithmetic(self):
        est = estimate_from_reference(5.0, 50, 100)
        assert est.seconds == pytest.approx(10.0)

    def test_equal_counts_reproduce_reference(self):
        assert estimate_from_reference(3.7, 41, 41).seconds == pytest.approx(3.7)

    def test_shrinking(self):
        assert estimate_from_reference(3.0, 30, 10).seconds == pytest.approx(1.0)

    def test_homogeneous_in_reference_duration(self):
        base = estimate_from_reference(2.0, 17, 53).seconds
        assert estimate_from_reference(6.0, 17, 53).seconds == pytest.approx(3.0 * base)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_from_reference(0.0, 10, 10)
        with pytest.raises(ValueError):
            estimate_from_reference(1.0, 0, 10)


class TestDefaultRates:
    def test_table_values(self):
        assert DEFAULT_RATES == {"EN": 0.085, "JA": 0.10, "ZH": 0.27}

    def test_english(self):
        est = estimate_from_rate(20, "EN")
        assert est.seconds == pytest.approx(1.7)

    def test_japanese(self):
        assert estimate_from_rate(10, "JA").seconds == pytest.approx(1.0)

    def test_chinese(self):
        assert estimate_from_rate(4, "ZH").seconds == pytest.approx(1.08)

    def test_unknown_language_lists_known_tags(self):
        with pytest.raises(ValueError) as excinfo:
            estimate_from_rate(5, "KO")
        message = str(excinfo.value)
        for tag in ("EN", "JA", "ZH"):
            assert tag in message


class TestTokenCount:
    def test_ten_seconds_at_fifty_hertz(self):
        assert target_token_count(DurationEstimate(10.0)) == 500

    def test_floor_semantics(self):
        assert target_token_count(DurationEstimate(0.999)) == 49

    def test_clamped_to_one(self):
        assert target_token_count(DurationEstimate(0.01)) == 1

    def test_plain_seconds_accepted(self):
        assert target_token_count(2.0) == 100

    def test_monotone_in_seconds(self):
        counts = [target_token_count(s) for s in (0.5, 1.0, 2.5, 2.5001, 7.0)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("seconds", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, seconds):
        with pytest.raises(ValueError, match="duration must be finite"):
            target_token_count(seconds)

    def test_alternate_frame_rate(self):
        assert target_token_count(2.0, frame_rate=25) == 50

    @pytest.mark.parametrize("frame_rate", [50, 25, 1, 7, 24, 75, 16000])
    def test_whole_token_durations_round_trip(self, frame_rate):
        # n / rate * rate rounds below n for some n (0.58 * 50 == 28.999...)
        for n in range(1, 100001):
            assert target_token_count(n / frame_rate, frame_rate) == n
