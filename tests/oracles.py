"""Independent oracles the tests check production code against.

Everything here is deliberately written a different way than the library:
finite differences instead of the tape, recursion instead of iterative DP,
complex multiplication or the pairwise formulas instead of a rotation table,
spelled-out arithmetic instead of shared helpers, a full decoder rescan per
token instead of a cache, one row and rng.choice instead of a batched sampler,
one motif token or one record id at a time instead of tables and whole-list
checks.
whole_batch_loss alone folds with the library's own helpers: it is the
one-tape reference that split training steps must match bit for bit.
"""

import math
from functools import lru_cache

import numpy as np

from pmrope import numerics as nm
from pmrope.decoding import LENGTH_CAP_FACTOR, GenerationResult
from pmrope.model import SpecialTokens, decoder_forward, encode
from pmrope.synthcorpus import PROMPT_SYMBOLS, Utterance
from pmrope.training import _length_groups, _weighted_sum, batch_loss


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


def rotate_pairs_reference(x, g, positions, frequencies, n_heads):
    """Rotation of [.., n_heads*head_dim] rows and its backward for upstream
    gradient g, pair by pair: (e*c - o*s, e*s + o*c) forward and
    (e*c + o*s, o*c - e*s) backward, with the angles taken in float64 and
    cast to x's dtype."""
    head_shape = x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)
    ang = np.asarray(positions, dtype=np.float64)[..., None] * frequencies
    c = np.cos(ang).astype(x.dtype)[..., None, :]
    s = np.sin(ang).astype(x.dtype)[..., None, :]
    results = []
    for arr, sign in ((x, 1), (g, -1)):
        h = arr.reshape(head_shape)
        e, o = h[..., 0::2], h[..., 1::2]
        out = np.empty_like(h)
        out[..., 0::2] = e * c - o * s if sign > 0 else e * c + o * s
        out[..., 1::2] = e * s + o * c if sign > 0 else o * c - e * s
        results.append(out.reshape(arr.shape))
    return tuple(results)


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
    logits = decoder_forward(inputs, encode(ex.text, params, config), len(inputs), params,
                             config)
    mask = np.ones(len(targets), dtype=bool)
    if mask_prompt:
        mask[: ex.prompt_len + 1] = False  # predictions of prompt tokens and separator
    return nm.cross_entropy(logits, targets, mask), int(mask.sum())


def whole_batch_loss(batch, params, config, mask_prompt=False):
    """Mean NLL over every scored position of a batch, as one tape sees it:
    batch_loss's parts of all its length groups, position-weighted; and the
    number of positions in the mean."""
    parts = batch_loss(batch, params, config, mask_prompt, _length_groups(batch.lengths.tolist()))
    total = sum(count for _, count in parts)
    return _weighted_sum(parts, total), total


def sample_row(logits, cfg, rng):
    """decoding.filter_and_sample for one row of logits, drawing with rng.choice."""
    z = np.asarray(logits, dtype=np.float64) / cfg.temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    order = np.argsort(-p, kind="stable")
    kept = order[: min(cfg.top_k, order.size)]
    cum = np.cumsum(p[kept])
    cut = int(np.searchsorted(cum, cfg.top_p - 1e-12, side="left")) + 1
    support = kept[: min(cut, kept.size)]
    probs = p[support] / p[support].sum()
    return int(rng.choice(support, p=probs))


def generate_rescan(text_tokens, prompt_audio_tokens, target_len, params, config, sampler):
    """decoding.generate without a cache: every step reruns decoder_forward over
    the whole stream and samples from its last row with sample_row."""
    specials = SpecialTokens.for_vocab(config.audio_vocab)
    enc_states = encode(text_tokens, params, config)
    stream = [specials.bos, *(int(t) for t in prompt_audio_tokens), specials.separator]
    total_len = len(stream) + target_len
    cap = math.ceil(LENGTH_CAP_FACTOR * target_len)
    rng = np.random.default_rng(sampler.seed)
    blocked = [specials.pad, specials.separator, specials.bos]

    generated = []
    while True:
        logits = decoder_forward(stream, enc_states, total_len, params, config)
        row = logits.data[-1].astype(np.float64)
        row[blocked] = -np.inf
        token = sample_row(row, sampler, rng)
        if token == specials.eos:
            return GenerationResult(tokens=generated, stop_reason="eos",
                                    generated_len=len(generated), target_len=target_len)
        generated.append(token)
        stream.append(token)
        if len(generated) >= cap:
            return GenerationResult(tokens=generated, stop_reason="length_cap",
                                    generated_len=len(generated), target_len=target_len)


def render_audio_reference(text, style_id, stretch, spec):
    """synthcorpus.render_audio read token by token off the motif array."""
    if stretch < 1:
        raise ValueError(f"stretch must be >= 1, got {stretch}")
    if not 0 <= style_id < spec.n_styles:
        raise ValueError(f"style {style_id} outside [0, {spec.n_styles})")
    offset = style_id * spec.per_style
    out = []
    for symbol in text:
        if not 0 <= symbol < spec.n_symbols:
            raise ValueError(f"symbol {symbol} outside [0, {spec.n_symbols})")
        for token in spec.motifs[symbol]:
            out.extend([int(token) + offset] * stretch)
    return out


def prompt_reference(utterance, spec):
    """synthcorpus.prompt_for: the symbols absent from the text, then those
    in it, each in symbol order, cut to PROMPT_SYMBOLS and rendered at
    stretch 1 by render_audio_reference."""
    used = set(utterance.text)
    symbols = ([s for s in range(spec.n_symbols) if s not in used]
               + [s for s in range(spec.n_symbols) if s in used])
    return render_audio_reference(symbols[:PROMPT_SYMBOLS], utterance.style_id, 1, spec)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


#: each JSONL record key -> (check of its value, what the check wants)
_RECORD_CHECKS = {
    "text": (lambda v: isinstance(v, list) and all(_is_int(x) for x in v), "a list of ints"),
    "style_id": (_is_int, "an int"),
    "stretch": (_is_int, "an int"),
    "audio": (lambda v: isinstance(v, list) and all(_is_int(x) for x in v), "a list of ints"),
    "duration_tokens": (_is_int, "an int"),
}


def utterance_from_record_reference(rec, where, spec, audio_vocab):
    """synthcorpus._utterance_from_record with one check per id."""
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: record must be a JSON object")
    for key, (check, wanted) in _RECORD_CHECKS.items():
        if key not in rec:
            raise ValueError(f"{where}: missing key {key!r}")
        if not check(rec[key]):
            raise ValueError(f"{where}: key {key!r} must be {wanted}, got {rec[key]!r}")
    silence = SpecialTokens.for_vocab(audio_vocab).silence
    ranges = (
        ("text", rec["text"] and all(0 <= t < spec.n_symbols for t in rec["text"]),
         f"nonempty, with ids in [0, {spec.n_symbols})"),
        ("audio", all(0 <= t < audio_vocab or t == silence for t in rec["audio"]),
         f"ids in [0, {audio_vocab}) or the silence id {silence}"),
        ("style_id", 0 <= rec["style_id"] < spec.n_styles, f"in [0, {spec.n_styles})"),
        ("stretch", rec["stretch"] >= 1, ">= 1"),
        ("duration_tokens", rec["duration_tokens"] >= 1, ">= 1"),
        ("duration_tokens", rec["duration_tokens"] == len(rec["audio"]),
         f"the audio's length {len(rec['audio'])}"),
    )
    for key, ok, wanted in ranges:
        if not ok:
            raise ValueError(f"{where}: key {key!r} must be {wanted}, got {rec[key]!r}")
    return Utterance(**{key: rec[key] for key in _RECORD_CHECKS})
