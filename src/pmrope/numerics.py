"""Dense float tensors with reverse-mode gradients on an explicit tape.

Tensors wrap numpy arrays. Every differentiable operation records a backward
closure on the innermost active Tape; a reverse sweep replays the records in
exact reverse execution order, accumulating gradients additively wherever a
tensor fans out into several consumers. A tensor keeps the first gradient it
receives as it is, and an intermediate's gradient is released as soon as its
backward closure has read it. The sweep consumes the tape: its records are
released when backward returns, and tensors hold no reference to a tape, so a
step's activations are freed by reference counting once the caller drops
them. With no active tape the same operations run as plain numpy forward
math, which is what inference uses.
"""

from __future__ import annotations

import math
import threading

import numpy as np

NORM_EPS = 1e-6  # rms_norm stabilizer
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class _ActiveTapes(threading.local):
    """Each thread's stack of active tapes, innermost last (always present)."""

    def __init__(self):
        self.stack = []


_active = _ActiveTapes()


class Tensor:
    """A dense real-valued array with an optional same-shaped gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if 0 in arr.shape:
            raise ShapeError(f"tensor dimensions must be positive, got {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


class Tape:
    """Ordered record of executed operations, replayed once in reverse.

    Use as a context manager around the forward pass; separate tapes share no
    state, so independent forward/backward runs may proceed concurrently on
    different threads. The tape is the only owner of what it recorded:
    ``backward`` takes the records off it, so a second ``backward`` on the
    same tape raises ValueError. After ``backward`` only tensors that no
    recorded operation produced (the parameters and other inputs) hold a
    gradient; every intermediate's, the loss's included, is None again.
    """

    def __init__(self):
        self._records = []  # (out, inputs, vjp); vjp(out_grad) -> per-input grads

    def __enter__(self) -> "Tape":
        _active.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.stack.pop()
        return False

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not any(out is loss for out, _, _ in reversed(self._records)):
            raise ValueError("loss was not produced by operations recorded on this tape "
                             "(a tape is consumed by its first backward)")
        records, self._records = self._records, []
        loss.grad = np.ones_like(loss.data)
        for out, inputs, vjp in reversed(records):
            g, out.grad = out.grad, None  # an intermediate's gradient is spent once read
            if g is None:
                continue  # branch that never reached the loss
            for tensor, grad in zip(inputs, vjp(g)):
                if grad is None:
                    continue
                if tensor.grad is not None:
                    tensor.grad += grad
                else:  # kept as it is, unless it is g (add's) or a view of g (reshape's)
                    tensor.grad = grad.copy() if np.may_share_memory(grad, g) else grad


def record_op(out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    """Wrap an op result, registering its backward closure on the active tape.

    ``vjp(out_grad)`` must return one gradient array (or None) per input, in
    order. Used by the model and positional modules for their fused ops.
    """
    out = Tensor(out_data)
    stack = _active.stack
    if stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        stack[-1]._records.append((out, tuple(inputs), vjp))
    return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m,k] @ [k,n], or batched [n_batch,m,k] @ [k,n]."""
    if (a.data.ndim not in (2, 3) or b.data.ndim != 2
            or a.data.shape[-1] != b.data.shape[0]):
        raise ShapeError(f"matmul shapes {a.data.shape} x {b.data.shape} are incompatible")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ b.data.T
        if a.data.ndim == 2:
            gb = a.data.T @ g
        else:
            gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, gb

    return record_op(out, (a, b), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    """View the same elements under a new shape (row-major order kept)."""
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return record_op(out, (x,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shaped tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes {a.data.shape} and {b.data.shape} differ")
    return record_op(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shaped tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes {a.data.shape} and {b.data.shape} differ")
    return record_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    return record_op(x.data * c, (x,), lambda g: (g * c,))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = np.asarray(x.data.sum())

    def vjp(g):
        return (np.full_like(x.data, float(g)),)

    return record_op(out, (x,), vjp)


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the last axis (max subtraction)."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return record_op(out, (x,), vjp)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """Scale each last-axis slice to unit root-mean-square, then apply gain."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,):
        raise ShapeError(f"gain shape {gain.data.shape} does not match last axis of {x.data.shape}")
    # np.add.reduce(..) / d is what .mean computes, without its Python wrapper
    inv = 1.0 / np.sqrt(np.add.reduce(x.data * x.data, axis=-1, keepdims=True) / d + NORM_EPS)
    normed = x.data * inv
    out = normed * gain.data

    def vjp(g):
        gu = g * gain.data
        gx = inv * (gu - normed * (np.add.reduce(gu * normed, axis=-1, keepdims=True) / d))
        ggain = (g * normed).reshape(-1, d).sum(axis=0)
        return gx, ggain

    return record_op(out, (x, gain), vjp)


def gelu(x: Tensor) -> Tensor:
    """GELU activation, tanh approximation."""
    z = x.data
    inner = z * z
    inner *= _GELU_A
    inner += 1.0
    inner *= z  # z + A z^3 == z (1 + A z^2)
    inner *= _GELU_C
    t = np.tanh(inner)
    out = 1.0 + t
    out *= z
    out *= 0.5

    def vjp(g):
        d = z * z
        d *= 3.0 * _GELU_A
        d += 1.0
        d *= _GELU_C
        d *= 1.0 - t * t
        d *= z
        d += 1.0 + t
        d *= 0.5
        d *= g
        return (d,)

    return record_op(out, (x,), vjp)


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean next-token negative log-likelihood over unmasked rows.

    logits: [n, vocab]; targets: n integer ids; mask: n booleans (default all
    true). Log-probabilities use a stable log-sum-exp.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross_entropy expects [n, vocab] logits, got {z.shape}")
    n, vocab = z.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match {n} logit rows")
    if mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise ShapeError(f"mask shape {mask.shape} does not match {n} logit rows")
    if not mask.any():
        raise ValueError("cross_entropy: every position is masked out")
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValueError(f"target id outside [0, {vocab})")

    m = z.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
    nll = lse - z[np.arange(n), targets]
    k = int(mask.sum())
    out = np.asarray((nll * mask).sum() / k)

    def vjp(g):
        p = np.exp(z - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        p *= (mask * (float(g) / k))[:, None]
        return (p,)

    return record_op(out, (logits,), vjp)


def embed(table: Tensor, ids) -> Tensor:
    """Row lookup into an embedding table; gradient scatter-adds into it."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.size == 0:
        raise ShapeError(f"ids must be a nonempty 1-d or 2-d array, got shape {ids.shape}")
    rows = table.data.shape[0]
    if ids.min() < 0 or ids.max() >= rows:
        raise ValueError(f"token id outside [0, {rows})")
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return record_op(out, (table,), vjp)
