"""Autoregressive generation under an inference-time progress schedule.

The decoder stream opens with bos + prompt + separator; the progress schedule
spans that prefix plus the requested target length, mirroring training. At
each step the logits pass through temperature scaling, top-k, then nucleus
filtering before sampling. Generation stops at eos or at a 1.2x length cap
(slack enough for the +/-10% duration-accuracy window to register misses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, ModelParams, SpecialTokens, decoder_forward, encode
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
    if target_len < 1:
        raise ValueError(f"target_len must be >= 1, got {target_len}")
    specials = SpecialTokens.for_vocab(config.audio_vocab)
    enc_out = encode(text_tokens, params, config)
    stream = [specials.bos, *(int(t) for t in prompt_audio_tokens), specials.separator]
    schedule_dec = ProgressSchedule(len(stream) + target_len, config.progress_scale)
    schedule_enc = ProgressSchedule(enc_out.length, config.progress_scale)
    cap = math.ceil(LENGTH_CAP_FACTOR * target_len)
    rng = np.random.default_rng(sampler.seed)
    blocked = [specials.pad, specials.separator, specials.bos]

    generated: list = []
    while True:
        logits = decoder_forward(stream, enc_out, schedule_dec, schedule_enc, params, config)
        row = logits.data[-1].astype(np.float64).copy()
        row[blocked] = -np.inf
        token = filter_and_sample(row, sampler, rng)
        if token == specials.eos:
            return GenerationResult(tokens=generated, stop_reason="eos",
                                    generated_len=len(generated), target_len=target_len)
        generated.append(token)
        stream.append(token)
        if len(generated) >= cap:
            return GenerationResult(tokens=generated, stop_reason="length_cap",
                                    generated_len=len(generated), target_len=target_len)
