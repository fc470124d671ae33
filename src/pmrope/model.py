"""Encoder-decoder codec language model with progress-rotated cross-attention.

A bidirectional text encoder feeds every decoder layer through cross-attention.
Self-attention (both stacks) uses ordinary integer-position rotations; the
cross-attention queries/keys are rotated at fractional progress positions when
pm_rope_enabled, and left unrotated otherwise. The audio vocabulary carries
five extra control tokens and the output head is linear -> GELU -> linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import numerics as nm
from .numerics import ShapeError, Tensor, record_op
from .positional import (
    DEFAULT_PROGRESS_SCALE,
    DEFAULT_ROPE_BASE,
    ProgressSchedule,
    RopeParams,
    rotate_heads,
)

N_SPECIAL_TOKENS = 5

EMBED_INIT_STD = 0.02


@dataclass
class ModelConfig:
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    head_dim: int = 16
    ffn_dim: int = 256
    text_vocab: int = 32
    audio_vocab: int = 64
    pm_rope_enabled: bool = True
    progress_scale: float = DEFAULT_PROGRESS_SCALE
    rope_base: float = DEFAULT_ROPE_BASE

    def __post_init__(self):
        for name in ("n_enc_layers", "n_dec_layers", "d_model", "n_heads", "head_dim",
                     "ffn_dim", "text_vocab", "audio_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_model != self.n_heads * self.head_dim:
            raise ValueError(
                f"d_model {self.d_model} != n_heads {self.n_heads} * head_dim {self.head_dim}"
            )

    @property
    def audio_vocab_ext(self) -> int:
        """Audio vocabulary size including the five special tokens."""
        return self.audio_vocab + N_SPECIAL_TOKENS


#: JSON values each config field annotation accepts; bool is an int subclass,
#: so it is excluded by hand. A tuple field arrives as a JSON list of ints.
_FIELD_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "tuple": lambda v: isinstance(v, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in v),
}


def config_from_record(cls, record):
    """Build the config dataclass cls from a decoded JSON object.

    Every key must name a field of cls and every value must match that
    field's annotation; the first offender raises ValueError, as does the
    dataclass's own validation.
    """
    if not isinstance(record, dict):
        raise ValueError(f"config record must be a JSON object, got {type(record).__name__}")
    kinds = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, value in record.items():
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        kind = kinds[key]
        if not _FIELD_CHECKS[kind](value):
            wanted = "a list of ints" if kind == "tuple" else kind
            raise ValueError(f"config key {key!r} must be {wanted}, got {value!r}")
        values[key] = tuple(value) if kind == "tuple" else value
    return cls(**values)


@dataclass(frozen=True)
class SpecialTokens:
    """The five control token ids appended after the audio codebook."""

    bos: int
    eos: int
    pad: int
    silence: int
    separator: int

    @classmethod
    def for_vocab(cls, audio_vocab: int) -> "SpecialTokens":
        return cls(
            bos=audio_vocab,
            eos=audio_vocab + 1,
            pad=audio_vocab + 2,
            silence=audio_vocab + 3,
            separator=audio_vocab + 4,
        )


@dataclass
class EncoderOutput:
    states: Tensor  # [T, d_model]
    length: int


class ModelParams:
    """Named parameter tensors in a fixed, checkpoint-stable order."""

    def __init__(self, tensors: dict, config: ModelConfig):
        self.tensors = tensors
        self.config = config

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def copy(self) -> "ModelParams":
        return ModelParams(
            {n: Tensor(t.data.copy(), requires_grad=True) for n, t in self.tensors.items()},
            self.config,
        )


def param_shapes(config: ModelConfig) -> dict:
    """{name: shape} of every parameter tensor, in checkpoint order."""
    d, f = config.d_model, config.ffn_dim
    shapes = {"text_emb": (config.text_vocab, d), "audio_emb": (config.audio_vocab_ext, d)}
    for i in range(config.n_enc_layers):
        shapes[f"enc.{i}.attn.norm"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"enc.{i}.attn.{w}"] = (d, d)
        shapes[f"enc.{i}.ffn.norm"] = (d,)
        shapes[f"enc.{i}.ffn.w1"] = (d, f)
        shapes[f"enc.{i}.ffn.w2"] = (f, d)
    shapes["enc.norm"] = (d,)
    for i in range(config.n_dec_layers):
        for block in ("self", "cross"):
            shapes[f"dec.{i}.{block}.norm"] = (d,)
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"dec.{i}.{block}.{w}"] = (d, d)
        shapes[f"dec.{i}.ffn.norm"] = (d,)
        shapes[f"dec.{i}.ffn.w1"] = (d, f)
        shapes[f"dec.{i}.ffn.w2"] = (f, d)
    shapes["dec.norm"] = (d,)
    shapes["head.w1"] = (d, d)
    shapes["head.w2"] = (d, config.audio_vocab_ext)
    return shapes


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Seeded scaled-normal initialization; gains (the .norm tensors) start at one."""
    rng = np.random.default_rng(seed)
    proj_std = 1.0 / math.sqrt(config.d_model)
    tensors: dict = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("norm"):
            data = np.ones(shape, dtype=dtype)
        else:
            std = EMBED_INIT_STD if name.endswith("_emb") else proj_std
            data = rng.normal(0.0, std, size=shape).astype(dtype)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(tensors, config)


def _split_heads(arr: np.ndarray, n_heads: int) -> np.ndarray:
    """[.., S, H*hd] -> [.., H, S, hd] (head axis ahead of sequence)."""
    dm = arr.shape[-1]
    heads = arr.reshape(arr.shape[:-1] + (n_heads, dm // n_heads))
    return np.swapaxes(heads, -3, -2)


def _merge_heads(arr: np.ndarray) -> np.ndarray:
    """[.., H, S, hd] -> [.., S, H*hd]."""
    merged = np.ascontiguousarray(np.swapaxes(arr, -3, -2))
    return merged.reshape(merged.shape[:-2] + (merged.shape[-2] * merged.shape[-1],))


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask=None) -> Tensor:
    """Fused multi-head scaled dot-product attention.

    q is [Sq, n_heads*head_dim] or batched [n, Sq, n_heads*head_dim]; k/v
    match with Sk rows. mask is additive (0 or -inf), broadcastable to the
    [.., n_heads, Sq, Sk] score array. Inputs are already projected and,
    where applicable, rotated.
    """
    if q.data.ndim != k.data.ndim or k.data.shape != v.data.shape or \
            q.data.shape[:-2] != k.data.shape[:-2] or q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(
            f"attention shapes differ: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    dm = q.data.shape[-1]
    inv = 1.0 / math.sqrt(dm // n_heads)
    qh = _split_heads(q.data, n_heads)
    kh = _split_heads(k.data, n_heads)
    vh = _split_heads(v.data, n_heads)
    scores = qh @ np.swapaxes(kh, -1, -2) * inv
    if mask is not None:
        scores = scores + mask
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    out = _merge_heads(w @ vh)

    def vjp(g):
        gh = _split_heads(g, n_heads)
        gv = _merge_heads(np.swapaxes(w, -1, -2) @ gh)
        gw = gh @ np.swapaxes(vh, -1, -2)
        gs = w * (gw - (w * gw).sum(axis=-1, keepdims=True))
        gq = _merge_heads(gs @ kh) * inv
        gk = _merge_heads(np.swapaxes(gs, -1, -2) @ qh) * inv
        return gq, gk, gv

    return record_op(out, (q, k, v), vjp)


def causal_mask(n: int, dtype) -> np.ndarray:
    """Additive mask forbidding attention to later positions."""
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, k=1)] = -np.inf
    return m


def key_padding_mask(real: np.ndarray, dtype) -> np.ndarray:
    """Additive [n, 1, 1, S] mask hiding padded key positions (real is [n, S] bool)."""
    mask = np.where(real, 0.0, -np.inf).astype(dtype)
    return mask[:, None, None, :]


class DecoderCache:
    """Per-utterance decoder state that lets decoding run one position at a time.

    For each decoder layer it keeps the rotated self-attention keys and the
    values of every position run so far, and the cross-attention keys and
    values, projected (and progress-rotated) once on the first pass. The
    self-attention entries grow with each pass; nothing is sized in advance.
    """

    def __init__(self):
        self.self_kv: dict = {}   # layer prefix -> (keys, values), [n, length, d]
        self.cross_kv: dict = {}  # layer prefix -> (keys, values), [n, T, d]

    @property
    def length(self) -> int:
        """Decoder positions already run through the cache."""
        return next(iter(self.self_kv.values()))[0].data.shape[1] if self.self_kv else 0

    def extend(self, prefix: str, k: Tensor, v: Tensor):
        """Append a pass's keys and values to a layer's; returns all of them."""
        if prefix in self.self_kv:
            old_k, old_v = self.self_kv[prefix]
            k = Tensor(np.concatenate((old_k.data, k.data), axis=1))
            v = Tensor(np.concatenate((old_v.data, v.data), axis=1))
        self.self_kv[prefix] = (k, v)
        return k, v


def _self_attention_block(x, prefix, positions, mask, params, config, rope, cache=None):
    h = nm.rms_norm(x, params[f"{prefix}.norm"])
    q = rotate_heads(nm.matmul(h, params[f"{prefix}.wq"]), positions, rope, config.n_heads)
    k = rotate_heads(nm.matmul(h, params[f"{prefix}.wk"]), positions, rope, config.n_heads)
    v = nm.matmul(h, params[f"{prefix}.wv"])
    if cache is not None:
        k, v = cache.extend(prefix, k, v)
    a = attention(q, k, v, config.n_heads, mask)
    return nm.add(x, nm.matmul(a, params[f"{prefix}.wo"]))


def _cross_attention_block(x, enc_states, prefix, dec_progress, enc_progress, mask,
                           params, config, rope, cache=None):
    h = nm.rms_norm(x, params[f"{prefix}.norm"])
    q = nm.matmul(h, params[f"{prefix}.wq"])
    if config.pm_rope_enabled:
        q = rotate_heads(q, dec_progress, rope, config.n_heads)
    if cache is not None and prefix in cache.cross_kv:
        k, v = cache.cross_kv[prefix]
    else:
        k = nm.matmul(enc_states, params[f"{prefix}.wk"])
        v = nm.matmul(enc_states, params[f"{prefix}.wv"])
        if config.pm_rope_enabled:
            k = rotate_heads(k, enc_progress, rope, config.n_heads)
        if cache is not None:
            cache.cross_kv[prefix] = (k, v)
    a = attention(q, k, v, config.n_heads, mask)
    return nm.add(x, nm.matmul(a, params[f"{prefix}.wo"]))


def _ffn_block(x, prefix, params):
    h = nm.rms_norm(x, params[f"{prefix}.norm"])
    return nm.add(x, nm.matmul(nm.gelu(nm.matmul(h, params[f"{prefix}.w1"])), params[f"{prefix}.w2"]))


def encode_batch(texts: np.ndarray, text_real, params: ModelParams,
                 config: ModelConfig) -> Tensor:
    """Bidirectional encoding of padded [n, T] text rows -> [n, T, d] states.

    text_real is an [n, T] bool array marking non-pad positions (None when
    every row is full width). Padded positions produce states, but they are
    hidden from attention here and from cross-attention downstream.
    """
    n, T = texts.shape
    rope = RopeParams(config.head_dim, config.rope_base)
    positions = np.broadcast_to(np.arange(T, dtype=np.float64), (n, T))
    x = nm.embed(params["text_emb"], texts)
    mask = None if text_real is None else key_padding_mask(text_real, x.data.dtype)
    for i in range(config.n_enc_layers):
        x = _self_attention_block(x, f"enc.{i}.attn", positions, mask, params, config, rope)
        x = _ffn_block(x, f"enc.{i}.ffn", params)
    return nm.rms_norm(x, params["enc.norm"])


def decoder_batch(streams: np.ndarray, enc_states: Tensor, enc_real,
                  dec_progress: np.ndarray, enc_progress: np.ndarray,
                  params: ModelParams, config: ModelConfig, cache=None) -> Tensor:
    """Causal decoding of padded [n, S] streams -> [n, S, V+5] logits.

    Streams are right-padded; causality already keeps real positions from
    seeing the pad tail, so only encoder pads need masking (enc_real, [n, T]
    bool or None). Progress ID arrays are per-row ([n, S] and [n, T]).

    With a DecoderCache the S stream positions continue the ones already in
    it: they sit at integer positions cache.length onwards, attend to the
    cached keys as well as to each other, and are appended to the cache.
    Cross-attention keys and values come from the cache after its first pass.
    """
    n, S = streams.shape
    past = 0 if cache is None else cache.length
    rope = RopeParams(config.head_dim, config.rope_base)

    self_positions = np.broadcast_to(np.arange(past, past + S, dtype=np.float64), (n, S))
    x = nm.embed(params["audio_emb"], streams)
    # a single new position may see every key, so it needs no mask
    self_mask = causal_mask(past + S, x.data.dtype)[past:] if S > 1 else None
    cross_mask = None if enc_real is None else key_padding_mask(enc_real, x.data.dtype)
    for i in range(config.n_dec_layers):
        x = _self_attention_block(x, f"dec.{i}.self", self_positions, self_mask,
                                  params, config, rope, cache)
        x = _cross_attention_block(x, enc_states, f"dec.{i}.cross", dec_progress,
                                   enc_progress, cross_mask, params, config, rope, cache)
        x = _ffn_block(x, f"dec.{i}.ffn", params)
    h = nm.rms_norm(x, params["dec.norm"])
    return nm.matmul(nm.gelu(nm.matmul(h, params["head.w1"])), params["head.w2"])


def encode(text_tokens, params: ModelParams, config: ModelConfig) -> EncoderOutput:
    """Bidirectional encoding of a text token sequence."""
    tokens = np.asarray(text_tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("encoder input must be a nonempty token sequence")
    if tokens.min() < 0 or tokens.max() >= config.text_vocab:
        raise ValueError(f"text token outside [0, {config.text_vocab})")
    T = tokens.size
    states = encode_batch(tokens[None, :], None, params, config)
    return EncoderOutput(states=nm.reshape(states, (T, config.d_model)), length=T)


def decoder_forward(audio_tokens, enc_out: EncoderOutput, schedule_dec: ProgressSchedule,
                    schedule_enc: ProgressSchedule, params: ModelParams,
                    config: ModelConfig) -> Tensor:
    """Causal decoding pass over an audio token stream; returns [S, V+5] logits.

    The stream may outgrow the decoder schedule (over-generation up to the
    length cap), in which case progress IDs extrapolate past the scale.
    """
    tokens = np.asarray(audio_tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("decoder input must be a nonempty token sequence")
    if tokens.min() < 0 or tokens.max() >= config.audio_vocab_ext:
        raise ValueError(f"audio token outside [0, {config.audio_vocab_ext})")
    S = tokens.size
    if schedule_enc.total_len != enc_out.length:
        raise ValueError(
            f"encoder schedule length {schedule_enc.total_len} != encoder length {enc_out.length}"
        )
    dec_progress = schedule_dec.position_ids(S)
    enc_progress = schedule_enc.position_ids()
    states = nm.reshape(enc_out.states, (1, enc_out.length, config.d_model))
    logits = decoder_batch(tokens[None, :], states, None, dec_progress[None, :],
                           enc_progress[None, :], params, config)
    return nm.reshape(logits, (S, config.audio_vocab_ext))
