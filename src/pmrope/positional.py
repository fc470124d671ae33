"""Rotary position embeddings at real-valued positions and progress schedules.

The cross-attention pathway rotates decoder queries and encoder keys at
fractional "progress" positions: index j in a sequence of length L maps to
j/(L-1) * scale, so the first element always sits at 0 and the last at the
shared scale. Two sequences of different lengths thereby agree on where
"start" and "end" are, which is what lets the decoder track how far through
its target it has come.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ShapeError, Tensor, record_op

DEFAULT_PROGRESS_SCALE = 2000.0
DEFAULT_ROPE_BASE = 10000.0


@dataclass(frozen=True)
class RopeParams:
    """Rotation frequency bank for one attention pathway.

    frequencies[t] = base ** (-2t / head_dim): strictly decreasing, in (0, 1].
    """

    head_dim: int
    base: float = DEFAULT_ROPE_BASE
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be a positive even integer, got {self.head_dim}")
        if not 1.0 < self.base < math.inf:
            raise ValueError(f"rope_base must be finite and exceed 1, got {self.base}")
        t = np.arange(self.head_dim // 2, dtype=np.float64)
        object.__setattr__(self, "frequencies", self.base ** (-2.0 * t / self.head_dim))


@dataclass(frozen=True)
class ProgressSchedule:
    """Affine map from token index to a progress position ID.

    scale must be finite; it may be 0, which pins every position to 0 and
    thereby disables the rotation entirely (the reference point for the on/off
    comparison).
    """

    total_len: int
    scale: float = DEFAULT_PROGRESS_SCALE

    def __post_init__(self):
        if self.total_len < 1:
            raise ValueError(f"total_len must be positive, got {self.total_len}")
        if not 0.0 <= self.scale < math.inf:
            raise ValueError(f"progress_scale must be finite and nonnegative, got {self.scale}")

    def position_ids(self, n: int | None = None) -> np.ndarray:
        """Progress IDs for indices 0..n-1 (default n = total_len).

        Past total_len the affine map extrapolates beyond the scale; the
        decoder needs this when generation overshoots the target length.
        """
        if n is None:
            n = self.total_len
        if self.total_len == 1:
            return np.zeros(n, dtype=np.float64)  # a single token counts as "start"
        return np.arange(n, dtype=np.float64) / (self.total_len - 1) * self.scale


def apply_rope(v, position: float, params: RopeParams):
    """Rotate consecutive pairs of a head_dim vector by position * frequency.

    Norm-preserving; position may be fractional. One row of one head through
    rotate_heads; the result keeps a floating input's dtype.
    """
    arr = np.asarray(v)
    if arr.shape != (params.head_dim,):
        raise ShapeError(f"vector shape {arr.shape} does not match head_dim {params.head_dim}")
    return rotate_heads(Tensor(arr[None, :]), np.array([position], dtype=np.float64),
                        params, n_heads=1).data[0]


def cross_attention_scores(q_rotated, k_rotated):
    """Scaled dot-product attention logits between (rotated) queries and keys.

    Accepts single vectors or [n, head_dim] stacks; with rotation disabled
    this is exactly standard cross-attention. Computed in float64.
    """
    qa = np.asarray(q_rotated, dtype=np.float64)
    ka = np.asarray(k_rotated, dtype=np.float64)
    if qa.shape[-1] != ka.shape[-1]:
        raise ShapeError(f"head dims differ: {qa.shape} vs {ka.shape}")
    d = qa.shape[-1]
    scores = np.atleast_2d(qa) @ np.atleast_2d(ka).T / np.sqrt(d)
    if qa.ndim == 1 and ka.ndim == 1:
        return float(scores[0, 0])
    if qa.ndim == 1:
        return scores[0]
    if ka.ndim == 1:
        return scores[:, 0]
    return scores


def rotate_heads(x: Tensor, positions: np.ndarray, params: RopeParams, n_heads: int) -> Tensor:
    """Tape-aware per-head rotation of projected vectors at given positions.

    x is [S, n_heads*head_dim] with positions [S], or batched
    [n, S, n_heads*head_dim] with positions [n, S]. Angles are computed in
    float64 and cast to the tensor dtype; backward is the inverse rotation.
    """
    dm = x.data.shape[-1]
    hd = params.head_dim
    if dm != n_heads * hd:
        raise ShapeError(f"width {dm} != n_heads {n_heads} * head_dim {hd}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != x.data.shape[:-1]:
        raise ShapeError(f"positions shape {positions.shape} does not match rows {x.data.shape[:-1]}")
    head_shape = x.data.shape[:-1] + (n_heads, hd)
    ang = positions[..., None] * params.frequencies
    c = np.cos(ang).astype(x.data.dtype)[..., None, :]  # broadcast over heads
    s = np.sin(ang).astype(x.data.dtype)[..., None, :]
    xh = x.data.reshape(head_shape)
    xe, xo = xh[..., 0::2], xh[..., 1::2]
    out = np.empty_like(xh)
    out[..., 0::2] = xe * c - xo * s
    out[..., 1::2] = xe * s + xo * c

    def vjp(g):
        gh = g.reshape(head_shape)
        ge, go = gh[..., 0::2], gh[..., 1::2]
        gx = np.empty_like(gh)
        gx[..., 0::2] = ge * c + go * s
        gx[..., 1::2] = go * c - ge * s
        return (gx.reshape(x.data.shape),)

    return record_op(out.reshape(x.data.shape), (x,), vjp)
