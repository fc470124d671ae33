"""Autoregressive generation under an inference-time progress schedule.

The decoder stream opens with bos + prompt + separator; the progress schedule
spans that prefix plus the requested target length, mirroring training.
Decoding is incremental and batched: generate_batch encodes every text in one
pass, then decodes one lockstep batch per prompt length. A batch runs its
prefixes, all of one length, through the decoder in one prefill pass that
fills a DecoderCache, then runs every unfinished row's newest token in one
pass per step. Each row keeps its own schedule, length cap and random
generator, so it samples exactly the tokens it would sample alone; a row
leaves the batch when it stops. generate is a batch of one. The
cross-attention progress of every position, including those past the target
that over-generation reaches, follows from the step index and the target
alone, so it is fixed before decoding starts. At each step the logits pass
through temperature scaling, top-k, then nucleus filtering before sampling.
Generation stops at eos or at a 1.2x length cap (slack enough for the +/-10%
duration-accuracy window to register misses).
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
    encode_texts,
)
from .numerics import Tensor
from .positional import ProgressSchedule

LENGTH_CAP_FACTOR = 1.2


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
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


@dataclass
class GenerationResult:
    tokens: list        # generated audio token ids (no prompt, no control tokens)
    stop_reason: str    # "eos" | "length_cap"
    generated_len: int
    target_len: int


def filter_and_sample(logits, cfg: SamplerConfig, rng: np.random.Generator) -> int:
    """Temperature -> top-k -> smallest nucleus with mass >= top_p -> sample.

    The nucleus boundary uses >= (a token landing exactly on top_p stays in);
    a tiny slack absorbs float rounding of that tie.
    """
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


def generate(text_tokens, prompt_audio_tokens, target_len: int, params: ModelParams,
             config: ModelConfig, sampler: SamplerConfig) -> GenerationResult:
    """Sample audio tokens for a text, aiming at target_len of them.

    The prompt may be empty. pad/separator/bos are masked out of the sampling
    support; eos stays available as the stop signal.
    """
    return generate_batch([(text_tokens, prompt_audio_tokens, target_len)], params, config,
                          [sampler])[0]


def generate_batch(requests, params: ModelParams, config: ModelConfig,
                   samplers) -> list:
    """generate for each (text, prompt, target_len) request.

    samplers holds one SamplerConfig per request. Every request is checked
    and every text encoded before the first decoder pass; the requests then
    decode in one lockstep batch per prompt length. Results come back in
    request order.
    """
    requests = list(requests)
    samplers = list(samplers)
    if len(samplers) != len(requests):
        raise ValueError(f"{len(samplers)} samplers for {len(requests)} requests")
    if not requests:
        return []
    for _, _, target_len in requests:
        if target_len < 1:
            raise ValueError(f"target_len must be >= 1, got {target_len}")
    enc_states, enc_real = encode_texts([text for text, _, _ in requests], params, config)
    groups = {}
    for i, (_, prompt, _) in enumerate(requests):
        groups.setdefault(len(prompt), []).append(i)
    results = [None] * len(requests)
    for rows in groups.values():
        decoded = _decode_lockstep(
            [requests[i] for i in rows], [samplers[i] for i in rows],
            Tensor(enc_states.data[rows]), None if enc_real is None else enc_real[rows],
            params, config)
        for i, result in zip(rows, decoded):
            results[i] = result
    return results


def _decode_lockstep(requests, samplers, enc_states: Tensor, enc_real,
                     params: ModelParams, config: ModelConfig) -> list:
    """Decode requests whose prompts all have one length as one lockstep batch,
    from their encoder states; results come back in request order."""
    specials = SpecialTokens.for_vocab(config.audio_vocab)
    n, T = len(requests), enc_states.data.shape[1]
    inputs = np.array([[specials.bos, *(int(t) for t in prompt), specials.separator]
                       for _, prompt, _ in requests], dtype=np.int64)
    P = inputs.shape[1]
    caps = [math.ceil(LENGTH_CAP_FACTOR * target_len) for _, _, target_len in requests]
    enc_progress = np.stack([
        ProgressSchedule(len(text), config.progress_scale).position_ids(T)
        for text, _, _ in requests])
    # each row's progress ids out to the longest cap; past total_len they extrapolate
    dec_progress = np.stack([
        ProgressSchedule(P + target_len, config.progress_scale).position_ids(P + max(caps))
        for _, _, target_len in requests])
    rngs = [np.random.default_rng(sampler.seed) for sampler in samplers]
    blocked = [specials.pad, specials.separator, specials.bos]

    progress = dec_progress[:, :P]
    live = np.arange(n)  # request index of each batch row
    cache = DecoderCache()
    generated = [[] for _ in range(n)]
    results = [None] * n
    while True:
        # enc_states and enc_progress are read on the first pass only; from then
        # on the cache holds the cross-attention keys and values
        logits = decoder_batch(inputs, enc_states, enc_real, progress, enc_progress,
                               params, config, cache)
        rows = logits.data[:, -1].astype(np.float64)
        rows[:, blocked] = -np.inf
        keep = []
        for row, i in enumerate(live):
            token = filter_and_sample(rows[row], samplers[i], rngs[i])
            if token == specials.eos:
                stop = "eos"
            else:
                generated[i].append(token)
                stop = "length_cap" if len(generated[i]) >= caps[i] else None
            if stop is None:
                keep.append(row)
            else:
                results[i] = GenerationResult(tokens=generated[i], stop_reason=stop,
                                              generated_len=len(generated[i]),
                                              target_len=requests[i][2])
        if not keep:
            return results
        if len(keep) < live.size:
            cache.select(keep)
            live = live[keep]
            if enc_real is not None:
                enc_real = enc_real[keep]
        inputs = np.array([[generated[i][-1]] for i in live], dtype=np.int64)
        progress = dec_progress[live, cache.length][:, None]
