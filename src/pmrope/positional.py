"""Rotary position embeddings at real-valued positions, and progress ids.

The cross-attention pathway rotates decoder queries and encoder keys at
fractional "progress" positions: index j in a sequence of length L maps to
j/(L-1) * scale, so the first element always sits at 0 and the last at the
shared scale. Two sequences of different lengths thereby agree on where
"start" and "end" are, which is what lets the decoder track how far through
its target it has come.

Every rotation, integer or fractional, goes through rotate_heads with a
rope_table: the cos/sin table of one position array, built once and shared
by every rotation at those positions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
        frequencies = self.base ** (-2.0 * t / self.head_dim)
        frequencies.flags.writeable = False
        object.__setattr__(self, "frequencies", frequencies)


def progress_ids(total_lens, n: int, scale: float, start: int = 0) -> np.ndarray:
    """[rows, n] progress IDs of indices start..start+n-1, one row per total
    length L in total_lens: index j maps to j/(L-1) * scale, and every index
    to 0 when L == 1 (a single token counts as "start"). A scale of 0 pins
    every ID at 0, which leaves the rotation an identity.

    Past L the affine map extrapolates beyond the scale; the decoder needs
    this when generation overshoots the target length.
    """
    spans = np.asarray(total_lens, dtype=np.float64)[:, None] - 1  # exact: L is an int
    ids = np.arange(start, start + n, dtype=np.float64) / np.maximum(spans, 1) * scale
    ids[spans[:, 0] == 0] = 0.0
    return ids


class RopeTable(NamedTuple):
    """What rotate_heads needs to rotate rows at one array of positions."""

    cos: np.ndarray      # [*positions.shape, width]
    sin: np.ndarray      # [*positions.shape, width], signed
    partner: np.ndarray  # [width]: the other column of each column's pair


def rope_table(positions, params: RopeParams, n_heads: int, dtype) -> RopeTable:
    """Rotation table for [.., n_heads*head_dim] rows at positions.

    RoFormer's table form (Su et al. 2021, arXiv:2104.09864, eq. 34): a row x
    rotates to x*cos + pairswap(x)*sin, pairswap exchanging x[2i] and x[2i+1].
    cos and sin are positions.shape + (n_heads*head_dim,) in dtype; each pair
    holds (cos, cos) and (-sin, +sin) of position * its frequency: the
    widen_table of rope_halves. One table serves every rotation at these
    positions.
    """
    return widen_table(*rope_halves(positions, params, dtype), n_heads)


def rope_halves(positions, params: RopeParams, dtype) -> tuple:
    """cos and sin of every position times each frequency, computed in float64
    and cast once to dtype: positions.shape + (head_dim/2,), one column per
    rotated pair of a head, where rope_table's rows hold n_heads*head_dim."""
    ang = np.asarray(positions, dtype=np.float64)[..., None] * params.frequencies
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def widen_table(cos, sin, n_heads: int) -> RopeTable:
    """The RopeTable of rope_halves' cos and sin for n_heads heads."""
    pair, sign, partner = _columns(2 * cos.shape[-1], n_heads)
    cos = cos[..., pair]
    sin = sin[..., pair]
    sin *= sign  # exact: a sign flip
    return RopeTable(cos, sin, partner)


@functools.lru_cache(maxsize=16)
def _columns(head_dim: int, n_heads: int) -> tuple:
    """Per column of an n_heads*head_dim row: its pair's frequency index, the
    sign its sin takes and its pair partner (read-only, shared by callers)."""
    column = np.arange(n_heads * head_dim)
    arrays = (column % head_dim // 2, np.where(column % 2, 1.0, -1.0), column ^ 1)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def rotate_heads(x: Tensor, table: RopeTable) -> Tensor:
    """Tape-aware rotation of projected [.., n_heads*head_dim] rows by a rope_table.

    x is [S, width] with a table for positions [S], or batched [n, S, width]
    with one for positions [n, S]. The rotation is x*cos + pairswap(x)*sin and
    backward is its inverse, g*cos - pairswap(g)*sin; both equal the pairwise
    form (e*c - o*s, e*s + o*c) bit for bit. The result keeps x's dtype, which
    must be the table's.
    """
    cos, sin, partner = table
    if cos.shape != x.data.shape or cos.dtype != x.data.dtype:
        raise ShapeError(f"rotation table {cos.shape} {cos.dtype} does not match "
                         f"rows {x.data.shape} {x.data.dtype}")
    out = x.data * cos
    out += x.data.take(partner, axis=-1) * sin

    def vjp(g):
        gx = g * cos
        gx -= g.take(partner, axis=-1) * sin
        return (gx,)

    return record_op(out, (x,), vjp)
