"""Target-duration estimation and conversion to a token count.

With a reference recording the target duration scales the reference's
seconds-per-unit by the target unit count; without one, per-language default
rates apply. Durations convert to audio token counts at the codec frame rate
(50 tokens per second by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: seconds per text unit when no reference is available
DEFAULT_RATES = {"EN": 0.085, "JA": 0.10, "ZH": 0.27}

DEFAULT_FRAME_RATE = 50


@dataclass(frozen=True)
class DurationEstimate:
    seconds: float

    def __post_init__(self):
        if not 0 < self.seconds < math.inf:
            raise ValueError(f"estimated duration must be positive and finite, got {self.seconds}")


def _as_float(value, name: str) -> float:
    """float(value), or a ValueError naming the value when it does not fit a float."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {value} does not fit a float") from None


def estimate_from_reference(ref_duration_s: float, n_ref: int, n_tgt: int) -> DurationEstimate:
    """Scale the reference's seconds-per-unit by the target's unit count."""
    if not 0 < ref_duration_s < math.inf:
        raise ValueError(f"reference duration must be positive and finite, got {ref_duration_s}")
    if n_ref < 1 or n_tgt < 1:
        raise ValueError("unit counts must be >= 1")
    seconds = ref_duration_s / _as_float(n_ref, "reference unit count") * _as_float(
        n_tgt, "target unit count")
    return DurationEstimate(seconds)


def estimate_from_rate(n_tgt: int, language: str) -> DurationEstimate:
    """Fallback estimate from the per-language DEFAULT_RATES table."""
    if language not in DEFAULT_RATES:
        raise ValueError(
            f"unknown language {language!r}; known: {', '.join(sorted(DEFAULT_RATES))}")
    if n_tgt < 1:
        raise ValueError("unit count must be >= 1")
    seconds = DEFAULT_RATES[language] * _as_float(n_tgt, "target unit count")
    return DurationEstimate(seconds)


def target_token_count(estimate, frame_rate: int = DEFAULT_FRAME_RATE) -> int:
    """floor(seconds * frame_rate) up to float rounding, clamped to at least one token.

    n / frame_rate seconds give back n tokens, although n / rate * rate may
    round below n. Accepts a DurationEstimate or plain seconds.
    """
    seconds = estimate.seconds if isinstance(estimate, DurationEstimate) else _as_float(
        estimate, "duration")
    if not math.isfinite(seconds):
        raise ValueError(f"duration must be finite, got {seconds}")
    if seconds <= 0:
        raise ValueError(f"duration must be positive, got {seconds}")
    if frame_rate < 1:
        raise ValueError(f"frame rate must be >= 1, got {frame_rate}")
    tokens = seconds * _as_float(frame_rate, "frame rate")
    if math.isinf(tokens):
        raise ValueError(f"{seconds} s at {frame_rate} frames per second does not fit a float")
    n = math.floor(tokens)
    if (n + 1) / frame_rate <= seconds:  # the product rounded below a whole token
        n += 1
    return max(1, n)
