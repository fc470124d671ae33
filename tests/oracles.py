"""Independent oracles the tests check production code against.

Everything here is deliberately written a different way than the library:
finite differences instead of the tape, recursion instead of iterative DP,
complex multiplication instead of pairwise rotation, spelled-out arithmetic
instead of shared helpers.
"""

import math
from functools import lru_cache

import numpy as np

from pmrope import numerics as nm
from pmrope.model import decoder_forward, encode
from pmrope.positional import ProgressSchedule


def finite_diff_grad(loss_fn, tensor, eps=1e-5):
    """Central-difference gradient of a scalar loss w.r.t. one tensor's data.

    loss_fn() must recompute the loss from current tensor contents and return
    a float. Perturbs elements in place and restores them.
    """
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = loss_fn()
        flat[i] = original - eps
        minus = loss_fn()
        flat[i] = original
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad.reshape(tensor.data.shape)


def max_rel_err(analytic, numeric, floor=1e-4):
    """Largest elementwise relative error, with a floor for near-zero entries."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    den = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / den).max())


def levenshtein_recursive(reference, hypothesis):
    """Memoized-recursion edit distance (insert/delete/substitute, unit cost)."""
    ref = tuple(reference)
    hyp = tuple(hypothesis)

    @lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = dist(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1])
        return min(dist(i - 1, j) + 1, dist(i, j - 1) + 1, sub)

    result = dist(len(ref), len(hyp))
    dist.cache_clear()
    return result


def rope_complex_reference(vector, position, frequencies):
    """Standard rotary embedding via complex multiplication."""
    v = np.asarray(vector, dtype=np.float64)
    z = v[0::2] + 1j * v[1::2]
    rotated = z * np.exp(1j * position * np.asarray(frequencies, dtype=np.float64))
    out = np.empty_like(v)
    out[0::2] = rotated.real
    out[1::2] = rotated.imag
    return out


def wilson_direct(successes, n, z):
    """(low, high) of the Wilson score interval, spelled out term by term."""
    p_hat = successes / n
    a = p_hat + z * z / (2 * n)
    b = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n))
    c = 1 + z * z / n
    return (a - b) / c, (a + b) / c


def pearson_direct(x, y):
    """Covariance over the product of standard deviations, via plain loops."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y)) / n
    sx = math.sqrt(sum((xi - mx) ** 2 for xi in x) / n)
    sy = math.sqrt(sum((yi - my) ** 2 for yi in y) / n)
    return cov / (sx * sy)


def _example_loss(ex, params, config, mask_prompt):
    """Teacher-forced mean NLL of one training example, unbatched and unpadded,
    plus the number of positions in the mean."""
    inputs = ex.stream[:-1]
    targets = ex.stream[1:]
    enc_out = encode(ex.text, params, config)
    sched_dec = ProgressSchedule(len(inputs), config.progress_scale)
    sched_enc = ProgressSchedule(enc_out.length, config.progress_scale)
    logits = decoder_forward(inputs, enc_out, sched_dec, sched_enc, params, config)
    mask = np.ones(len(targets), dtype=bool)
    if mask_prompt:
        mask[: ex.prompt_len + 1] = False  # predictions of prompt tokens and separator
    return nm.cross_entropy(logits, targets, mask), int(mask.sum())
