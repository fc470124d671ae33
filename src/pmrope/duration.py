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

#: relative slack on seconds * frame_rate before flooring, so that n / rate
#: seconds give back n tokens although n / rate * rate may round below n
_ROUNDING_SLACK = 1e-9


@dataclass(frozen=True)
class DurationEstimate:
    seconds: float
    source: str  # "reference_ratio" | "default_rate"

    def __post_init__(self):
        if self.seconds <= 0:
            raise ValueError(f"estimated duration must be positive, got {self.seconds}")


def estimate_from_reference(ref_duration_s: float, n_ref: int, n_tgt: int) -> DurationEstimate:
    """Scale the reference's seconds-per-unit by the target's unit count."""
    if ref_duration_s <= 0:
        raise ValueError(f"reference duration must be positive, got {ref_duration_s}")
    if n_ref < 1 or n_tgt < 1:
        raise ValueError("unit counts must be >= 1")
    return DurationEstimate(seconds=ref_duration_s / n_ref * n_tgt, source="reference_ratio")


def estimate_from_rate(n_tgt: int, language: str, rates=None) -> DurationEstimate:
    """Fallback estimate from a per-language seconds-per-unit table."""
    if rates is None:
        rates = DEFAULT_RATES
    if language not in rates:
        raise ValueError(f"unknown language {language!r}; known: {', '.join(sorted(rates))}")
    rate = rates[language]
    if rate <= 0:
        raise ValueError(f"rate for {language!r} must be positive, got {rate}")
    if n_tgt < 1:
        raise ValueError("unit count must be >= 1")
    return DurationEstimate(seconds=rate * n_tgt, source="default_rate")


def target_token_count(estimate, frame_rate: int = DEFAULT_FRAME_RATE) -> int:
    """floor(seconds * frame_rate) up to float rounding, clamped to at least one token.

    Accepts a DurationEstimate or plain seconds.
    """
    seconds = estimate.seconds if isinstance(estimate, DurationEstimate) else float(estimate)
    if not math.isfinite(seconds):
        raise ValueError(f"duration must be finite, got {seconds}")
    if seconds <= 0:
        raise ValueError(f"duration must be positive, got {seconds}")
    if frame_rate < 1:
        raise ValueError(f"frame rate must be >= 1, got {frame_rate}")
    return max(1, math.floor(seconds * frame_rate * (1.0 + _ROUNDING_SLACK)))
