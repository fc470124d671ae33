"""Autoregressive generation with progress toward a target length.

The decoder stream opens with bos + prompt + separator; a row's progress
spans that prefix plus the requested target length, mirroring training.
Decoding is incremental and batched: generate_batch takes requests whose
prompts all have one length and one SamplerConfig, encodes every text in one
pass, runs the prefixes through the decoder in one prefill pass that fills a
DecoderCache, then runs every unfinished row's newest token in one pass per
step. Row i draws from its own generator, seeded sampler.seed + i, and keeps
its own target and length cap, so it samples exactly the tokens it would
sample alone; a row leaves the batch when it stops. Every row still in the
batch has kept one token per step, so one step counter is the length of
each, and the cache's length is the prefix plus that count. generate is a
batch of one. Each pass hands decoder_batch every live row's text length and
total length (prefix plus target). From these the prefill pass builds the
rotation tables of every position up to the longest row's length cap, the
progress past a target that over-generation reaches included, and each later
pass slices its own. At each step one filter_and_sample call takes the
logits of every unfinished row through temperature scaling, top-k, nucleus
filtering, each support's mass and cdf and the pick of a token as one
matrix. The only per-row work is one uniform drawn from each row's own
generator, after every row's probabilities have been checked, and each row
gets exactly the token Generator.choice would draw from its support, so
batching changes no sampled token. Generation stops at eos or at a 1.2x
length cap (slack enough for the +/-10% duration-accuracy window to register
misses); targets above MAX_TARGET_LEN are refused before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DecoderCache,
    ModelConfig,
    ModelParams,
    SpecialTokens,
    decoder_batch,
    encode_batch,
)

LENGTH_CAP_FACTOR = 1.2
# longest target generate_batch accepts, about 82 s at 50 Hz and some 40 times
# the longest corpus stream; decoding sizes per-row arrays from the target
MAX_TARGET_LEN = 4096


@dataclass(frozen=True)
class SamplerConfig:
    top_k: int = 30
    top_p: float = 0.9
    temperature: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


@dataclass
class GenerationResult:
    tokens: list        # generated audio token ids (no prompt, no control tokens)
    stop_reason: str    # "eos" | "length_cap"
    generated_len: int
    target_len: int


def filter_and_sample(logits, sampler: SamplerConfig, rngs) -> np.ndarray:
    """One token per row of [rows, V] logits: temperature -> top-k -> smallest
    nucleus with mass >= top_p -> sample.

    Every row uses sampler's settings and draws from its own generator in
    rngs. Everything runs over the whole matrix at once but the one
    rng.random() that each row draws from its generator: each row normalises
    its support by the mass a 1-D support.sum() gives and draws through the
    cdf that Generator.choice(support, p=probs) builds, so every row draws
    exactly the token, and advances its generator exactly as far, as that
    call would. The nucleus boundary uses >= (a token landing exactly on top_p
    stays in); a tiny slack absorbs float rounding of that tie. A row whose
    probabilities are not finite raises ValueError before any row draws.
    """
    z = np.asarray(logits, dtype=np.float64) / sampler.temperature
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z, out=z)
    p /= p.sum(axis=1, keepdims=True)
    rows, k = p.shape[0], min(sampler.top_k, p.shape[1])
    index = np.arange(rows)
    # only each row's first top_k ranks can be picked
    order = (-p).argsort(axis=1, kind="stable")[:, :k]
    ranked = p[index[:, None], order]
    # ranked rows are non-increasing, so their running mass is non-decreasing
    # and the tokens below top_p form a prefix of each row
    below = (ranked.cumsum(axis=1) < sampler.top_p - 1e-12).sum(axis=1)
    sizes = np.minimum(below + 1, k)
    # each support's mass as a 1-D support.sum() adds it up, pairing from its
    # first item: reduceat adds a segment's first item to the pairwise sum of
    # the rest, so each segment opens on its row's zero column (a zero column
    # after each row keeps the last segment's end in bounds)
    padded = np.zeros((rows, k + 2))
    padded[:, 1:-1] = ranked
    bounds = index.repeat(2) * (k + 2)
    bounds[1::2] += 1 + sizes
    mass = np.add.reduceat(padded.ravel(), bounds)[::2]
    finite = mass > 0.0  # a NaN logit or an infinite row max makes the row all NaN
    if not finite.all():
        raise ValueError(f"sampling probabilities of row {finite.argmin()} are not finite")
    cdf = (ranked / mass[:, None]).cumsum(axis=1)
    cdf /= cdf[index, sizes - 1, None]
    draws = np.array([rng.random() for rng in rngs])
    # searchsorted(side="right") of each row's draw in its support's cdf; in
    # the top_k columns past a row's support the cdf stays at 1 or more,
    # above every draw
    picks = (cdf <= draws[:, None]).sum(axis=1)
    return order[index, picks]


def generate(text_tokens, prompt_audio_tokens, target_len: int, params: ModelParams,
             config: ModelConfig, sampler: SamplerConfig) -> GenerationResult:
    """Sample audio tokens for a text, aiming at target_len of them.

    The prompt may be empty. pad/separator/bos are masked out of the sampling
    support; eos stays available as the stop signal.
    """
    return generate_batch([(text_tokens, prompt_audio_tokens, target_len)], params, config,
                          sampler)[0]


def generate_batch(requests, params: ModelParams, config: ModelConfig,
                   sampler: SamplerConfig) -> list:
    """generate for each (text, prompt, target_len) request, as one lockstep batch.

    Every prompt must have one length. Request i samples with sampler's
    settings and seed sampler.seed + i, so it gets exactly what generate
    gives it with that seed. Every request is checked and every text encoded
    before the first decoder pass. Results come back in request order.
    """
    requests = list(requests)
    if not requests:
        return []
    for _, _, target_len in requests:
        if target_len < 1:
            raise ValueError(f"target_len must be >= 1, got {target_len}")
        if target_len > MAX_TARGET_LEN:
            raise ValueError(f"target_len must be <= MAX_TARGET_LEN = {MAX_TARGET_LEN}, "
                             f"got {target_len}")
    prompt_lens = sorted({len(prompt) for _, prompt, _ in requests})
    if len(prompt_lens) > 1:
        raise ValueError(f"a batch's prompts must have one length, got lengths {prompt_lens}")
    enc_states, text_lens = encode_batch([text for text, _, _ in requests], params, config)
    specials = SpecialTokens.for_vocab(config.audio_vocab)
    n = len(requests)
    inputs = np.array([[specials.bos, *(int(t) for t in prompt), specials.separator]
                       for _, prompt, _ in requests], dtype=np.int64)
    caps = np.array([math.ceil(LENGTH_CAP_FACTOR * target_len) for _, _, target_len in requests])
    total_lens = inputs.shape[1] + np.array([target_len for _, _, target_len in requests])
    rngs = [np.random.default_rng(sampler.seed + i) for i in range(n)]
    blocked = [specials.pad, specials.separator, specials.bos]

    # every live row has kept one token per step, so step counts the tokens of
    # each; live holds the request index of each batch row and is cut, with
    # rngs and the cache, to the kept rows when rows stop
    live = np.arange(n)
    step = 0
    lengths = np.zeros(n, dtype=np.int64)
    out = np.empty((n, caps.max()), dtype=np.int64)
    cache = DecoderCache(inputs.shape[1] + int(caps.max()) - 1)  # a row's last token is never run
    while True:
        # enc_states are read on the first pass only; from then on the cache
        # holds the cross-attention keys and values
        logits = decoder_batch(inputs, enc_states, text_lens[live], total_lens[live], cache,
                               params, config)
        rows = logits.data[:, -1].astype(np.float64)
        rows[:, blocked] = -np.inf
        sampled = filter_and_sample(rows, sampler, rngs)
        going = sampled != specials.eos
        out[live, step] = sampled  # an eos lands just past its row's length, never read
        step += 1
        keep = np.flatnonzero(going & (step < caps[live]))
        if keep.size < live.size:
            lengths[live] = step - 1 + going  # an eos is not kept
            if keep.size == 0:
                break
            cache.select(keep)
            live = live[keep]
            rngs = [rngs[j] for j in keep]
        inputs = sampled[keep, None]
    # a row that stopped short of its cap stopped at eos
    return [GenerationResult(tokens=out[i, :length].tolist(),
                             stop_reason="length_cap" if length == cap else "eos",
                             generated_len=length, target_len=request[2])
            for i, (request, length, cap) in enumerate(zip(requests, lengths.tolist(),
                                                              caps.tolist()))]
