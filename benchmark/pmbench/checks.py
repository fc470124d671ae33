"""Correctness checks on program outputs; each returns a list of violations.

An empty list means the output passed. Every violation counts as one failed
operation in the benchmark's result line.
"""

from __future__ import annotations

import math

STOP_REASONS = ("eos", "length_cap")

#: acceptance criterion 7 of the paper reproduction: rotation on keeps
#: duration accuracy >= 0.90 and turning it off costs >= 0.25 of it
MIN_DURATION_ACCURACY_ON = 0.90
MIN_DURATION_ACCURACY_DELTA = 0.25


def check_generation(tokens, stop_reason: str, generated_len: int, target_len: int,
                     oracle_len: int, audio_vocab: int, cap_factor: float) -> list:
    """One generate request: in-vocabulary tokens, a known stop, the length cap."""
    problems = []
    if target_len != oracle_len:
        problems.append(f"target {target_len} tokens from oracle {oracle_len}")
    bad = [t for t in tokens if not 0 <= t < audio_vocab]
    if bad:
        problems.append(f"tokens outside [0, {audio_vocab}): {bad[:5]}")
    if stop_reason not in STOP_REASONS:
        problems.append(f"stop reason {stop_reason!r}")
    if generated_len != len(tokens):
        problems.append(f"generated_len {generated_len} != {len(tokens)} tokens")
    cap = math.ceil(cap_factor * target_len)
    if generated_len > cap:
        problems.append(f"generated {generated_len} tokens over the cap {cap}")
    return problems


def check_repeat(first, again) -> list:
    """The same request with the same seed must give the same tokens."""
    return [] if list(first) == list(again) else ["repeated request gave different tokens"]


def check_train_curve(curve) -> list:
    """Loss curve rows (step, train_loss, val_loss): finite, validation improved."""
    problems = []
    for step, train_loss, val_loss in curve:
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            problems.append(f"non-finite loss at step {step}")
    if len(curve) < 2:
        problems.append("loss curve has no validation after training")
    elif not curve[-1][2] < curve[0][2]:
        problems.append(f"final val loss {curve[-1][2]:.4f} not below initial {curve[0][2]:.4f}")
    return problems


def check_ablate_report(report: dict) -> list:
    """Both arms present, and rotation on beats off by the paper's margin."""
    arms = report.get("configurations", {})
    missing = [arm for arm in ("pm_on", "pm_off") if "duration_accuracy" not in arms.get(arm, {})]
    if missing:
        return [f"ablate report lacks {', '.join(missing)}"]
    on = arms["pm_on"]["duration_accuracy"]["mean"]
    off = arms["pm_off"]["duration_accuracy"]["mean"]
    problems = []
    if not on > off:
        problems.append(f"duration accuracy on {on:.3f} not above off {off:.3f}")
    if on < MIN_DURATION_ACCURACY_ON:
        problems.append(f"duration accuracy on {on:.3f} below {MIN_DURATION_ACCURACY_ON}")
    if on - off < MIN_DURATION_ACCURACY_DELTA:
        problems.append(f"on/off duration accuracy gap {on - off:.3f} below "
                        f"{MIN_DURATION_ACCURACY_DELTA}")
    return problems
