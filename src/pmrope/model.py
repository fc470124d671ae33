"""Encoder-decoder codec language model with progress-rotated cross-attention.

A bidirectional text encoder feeds every decoder layer through cross-attention.
Self-attention (both stacks) uses ordinary integer-position rotations; the
cross-attention queries/keys are rotated at fractional progress positions when
pm_rope_enabled, and left unrotated otherwise. The audio vocabulary carries
five extra control tokens and the output head is linear -> GELU -> linear.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import numerics as nm
from .numerics import ShapeError, Tensor, record_op
from .positional import (
    DEFAULT_PROGRESS_SCALE,
    DEFAULT_ROPE_BASE,
    RopeParams,
    RopeTable,
    progress_ids,
    rope_halves,
    rope_table,
    rotate_heads,
    widen_table,
)

N_SPECIAL_TOKENS = 5

EMBED_INIT_STD = 0.02

# one frequency bank per (head_dim, rope_base), not one per pass
_rope_params = functools.lru_cache(maxsize=16)(RopeParams)


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
        _rope_params(self.head_dim, self.rope_base)  # even head_dim, finite rope_base > 1
        if not 0.0 <= self.progress_scale < math.inf:  # NaN fails this too
            raise ValueError(
                f"progress_scale must be finite and nonnegative, got {self.progress_scale}")

    @property
    def audio_vocab_ext(self) -> int:
        """Audio vocabulary size including the five special tokens."""
        return self.audio_vocab + N_SPECIAL_TOKENS


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: each config field annotation -> (check of a JSON value, what the check
#: wants); bool is an int subclass, so it is excluded by hand. A tuple field
#: arrives as a JSON list of ints, whose items' types are collected in one
#: pass (JSON decodes no other int subclass than bool), and a float field
#: may arrive as a JSON int.
_FIELD_CHECKS = {
    "int": (_is_int, "an int"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a float"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "tuple": (lambda v: isinstance(v, list) and set(map(type, v)) <= {int}, "a list of ints"),
}


def read_json(raw: bytes, where: str):
    """One JSON document decoded from raw bytes; ValueError names where when they
    are not UTF-8 or not JSON Python can read (bad syntax, an int of more digits
    than it parses, or nesting past its recursion limit)."""
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ValueError(f"{where}: not UTF-8: {err}") from None
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{where}: not valid JSON: {err}") from None


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
        check, wanted = _FIELD_CHECKS[kind]
        if not check(value):
            raise ValueError(f"config key {key!r} must be {wanted}, got {value!r}")
        if kind == "float":
            try:
                value = float(value)
            except OverflowError:  # an int past the float range
                raise ValueError(f"config key {key!r} must be a float, got an int too large "
                                 f"for one") from None
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
    @functools.cache  # one instance per vocab: load_corpus asks once a record
    def for_vocab(cls, audio_vocab: int) -> "SpecialTokens":
        return cls(
            bos=audio_vocab,
            eos=audio_vocab + 1,
            pad=audio_vocab + 2,
            silence=audio_vocab + 3,
            separator=audio_vocab + 4,
        )


class ModelParams:
    """Named parameter tensors in a fixed, checkpoint-stable order."""

    def __init__(self, tensors: dict, config: ModelConfig):
        self.tensors = tensors
        self.config = config

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

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
    return heads.swapaxes(-3, -2)


def _merge_heads(arr: np.ndarray) -> np.ndarray:
    """[.., H, S, hd] -> [.., S, H*hd]."""
    merged = np.ascontiguousarray(arr.swapaxes(-3, -2))
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
    scores = qh @ kh.swapaxes(-1, -2) * inv
    if mask is not None:
        scores = scores + mask
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    out = _merge_heads(w @ vh)

    def vjp(g):
        gh = _split_heads(g, n_heads)
        gv = _merge_heads(w.swapaxes(-1, -2) @ gh)
        gw = gh @ vh.swapaxes(-1, -2)
        gs = w * (gw - (w * gw).sum(axis=-1, keepdims=True))
        gq = _merge_heads(gs @ kh) * inv
        gk = _merge_heads(gs.swapaxes(-1, -2) @ qh) * inv
        return gq, gk, gv

    return record_op(out, (q, k, v), vjp)


def causal_mask(n: int, dtype) -> np.ndarray:
    """Additive mask forbidding attention to later positions."""
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, k=1)] = -np.inf
    return m


def key_padding_mask(lens, n: int, dtype):
    """Additive [rows, 1, 1, n] mask hiding each row's key positions at or past
    its length in lens; None when no row is shorter than n."""
    lens = np.asarray(lens)[:, None]
    if lens.min() >= n:
        return None
    return np.where(np.arange(n) < lens, 0.0, -np.inf).astype(dtype)[:, None, None, :]


class DecoderCache:
    """Decoder state that lets decoding run one position at a time, for n rows.

    For each decoder layer it keeps the rotated self-attention keys and the
    values of every position run so far, and the cross-attention keys and
    values that decoder_batch builds on the cache's first pass. The
    self-attention keys and values live only in per-layer buffers that
    double in length whenever a pass outgrows them, so a pass copies in only
    its own positions; their first length columns are filled. decoder_batch
    advances length once per pass. Every row holds the same number of
    positions: cached streams are never padded.

    The first pass also builds the rotation inputs of every position up to
    max_length, the most any row's stream may reach: the self-attention
    table, as one row that every row shares, and each row's progress
    rope_halves, unexpanded. Each pass takes its own columns of them through
    tables; a pass that outgrows them (only a cache built without
    max_length does) has them rebuilt up to its own last position.
    """

    def __init__(self, max_length: int = 0):
        self.length = 0           # decoder positions already run through the cache
        self.max_length = max_length
        self.cross_kv: dict = {}  # layer prefix -> (keys, values), [n, T, d]
        self.self_table = None    # RopeTable of positions 0.., [1, P, d]
        self.progress = ()        # rope_halves of each row's progress, [n, P, head_dim / 2]
        self._buffers: dict = {}  # layer prefix -> (keys, values), [n, capacity, d]

    def extend(self, prefix: str, k: Tensor, v: Tensor):
        """Append a pass's keys and values to a layer's; returns all of them."""
        past = self.length
        end = past + k.data.shape[1]
        buffers = self._buffers.get(prefix)
        if buffers is None or buffers[0].shape[1] < end:
            grown = tuple(np.empty((new.shape[0], max(end, 2 * past), new.shape[2]), new.dtype)
                          for new in (k.data, v.data))
            for buf, old in zip(grown, buffers or ()):
                buf[:, :past] = old[:, :past]
            buffers = self._buffers[prefix] = grown
        for buf, new in zip(buffers, (k.data, v.data)):
            buf[:, past:end] = new
        return Tensor(buffers[0][:, :end]), Tensor(buffers[1][:, :end])

    def tables(self, n: int, start: int, stop: int, n_heads: int) -> tuple:
        """The rotation tables of the n rows' positions start..stop-1: the
        self-attention one and the progress one (None with no progress kept)."""
        columns = slice(start, stop)
        shared = self.self_table
        self_table = shared._replace(cos=shared.cos[:, columns].repeat(n, axis=0),
                                     sin=shared.sin[:, columns].repeat(n, axis=0))
        if not self.progress:
            return self_table, None
        return self_table, widen_table(*(half[:, columns] for half in self.progress), n_heads)

    def select(self, rows) -> None:
        """Keep only the given rows (indices in the current row order)."""
        for prefix, (k, v) in self.cross_kv.items():
            self.cross_kv[prefix] = (Tensor(k.data[rows]), Tensor(v.data[rows]))
        self.progress = tuple(half[rows] for half in self.progress)
        for prefix, (keys, values) in self._buffers.items():
            self._buffers[prefix] = keys[rows], values[rows]


def _self_attention_block(x, prefix, table, mask, params, config, cache=None):
    h = nm.rms_norm(x, params[f"{prefix}.norm"])
    q = rotate_heads(nm.matmul(h, params[f"{prefix}.wq"]), table)
    k = rotate_heads(nm.matmul(h, params[f"{prefix}.wk"]), table)
    v = nm.matmul(h, params[f"{prefix}.wv"])
    if cache is not None:
        k, v = cache.extend(prefix, k, v)
    a = attention(q, k, v, config.n_heads, mask)
    return nm.add(x, nm.matmul(a, params[f"{prefix}.wo"]))


def _cross_attention_block(x, kv, prefix, dec_table, mask, params, config):
    h = nm.rms_norm(x, params[f"{prefix}.norm"])
    q = nm.matmul(h, params[f"{prefix}.wq"])
    if config.pm_rope_enabled:
        q = rotate_heads(q, dec_table)
    a = attention(q, *kv, config.n_heads, mask)
    return nm.add(x, nm.matmul(a, params[f"{prefix}.wo"]))


def _ffn_block(x, prefix, params):
    h = nm.rms_norm(x, params[f"{prefix}.norm"])
    return nm.add(x, nm.matmul(nm.gelu(nm.matmul(h, params[f"{prefix}.w1"])), params[f"{prefix}.w2"]))


def _self_table(n: int, start: int, stop: int, config: ModelConfig, dtype) -> RopeTable:
    """Rotation table of the integer positions start..stop-1, which every one
    of the n rows shares: built for one row and broadcast to the rest."""
    table = rope_table(np.arange(start, stop, dtype=np.float64)[None],
                       _rope_params(config.head_dim, config.rope_base), config.n_heads, dtype)
    shape = (n,) + table.cos.shape[1:]
    return table._replace(cos=np.broadcast_to(table.cos, shape),
                          sin=np.broadcast_to(table.sin, shape))


def encode_batch(texts, params: ModelParams, config: ModelConfig):
    """Bidirectional encoding of text token sequences, in one pass.

    The texts are right-padded to the longest; returns the [n, T, d] states
    and the [n] text lengths. Padded positions produce states, but they are
    hidden from attention here and from cross-attention downstream.
    """
    rows = []
    outside = f"text token outside [0, {config.text_vocab})"
    for text in texts:
        try:
            tokens = np.asarray(text, dtype=np.int64)
        except OverflowError:  # an id past int64 is outside too
            raise ValueError(outside) from None
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("encoder input must be a nonempty token sequence")
        if tokens.min() < 0 or tokens.max() >= config.text_vocab:
            raise ValueError(outside)
        rows.append(tokens)
    lens = np.array([tokens.size for tokens in rows])
    n, T = len(rows), int(lens.max())
    padded = np.zeros((n, T), dtype=np.int64)
    padded[np.arange(T) < lens[:, None]] = np.concatenate(rows)  # row by row, left-aligned
    x = nm.embed(params["text_emb"], padded)
    table = _self_table(n, 0, T, config, x.data.dtype)
    mask = key_padding_mask(lens, T, x.data.dtype)
    for i in range(config.n_enc_layers):
        x = _self_attention_block(x, f"enc.{i}.attn", table, mask, params, config)
        x = _ffn_block(x, f"enc.{i}.ffn", params)
    return nm.rms_norm(x, params["enc.norm"]), lens


def decoder_batch(streams: np.ndarray, enc_states: Tensor, text_lens, total_lens,
                  cache, params: ModelParams, config: ModelConfig) -> Tensor:
    """Causal decoding of padded [n, S] streams -> [n, S, V+5] logits.

    Row r reads its first text_lens[r] encoder states (the rest are pads,
    hidden from cross-attention), and its progress spans total_lens[r]
    positions. Streams are right-padded; causality already keeps real
    positions from seeing the pad tail.

    With a DecoderCache (else None) the S positions continue every row's
    stream at positions cache.length onwards: they attend to the cached keys
    as well as to each other and are appended to the cache, whose length the
    pass then advances by S, so streams run through a cache hold no pads.
    Every layer's cross-attention keys and values are built here on every
    uncached pass and on a cache's first pass, which stores them for the rest.
    An uncached pass builds the rotation tables of its own positions. A
    cache's first pass builds them for every position up to the cache's
    max_length (the self-attention table once for all rows, the progress
    unexpanded per row, from these total_lens), and each pass widens its own
    columns of them; progress past a row's total extrapolates.
    """
    (n, S), T = streams.shape, enc_states.data.shape[1]
    past = 0 if cache is None else cache.length
    rope = _rope_params(config.head_dim, config.rope_base)

    x = nm.embed(params["audio_emb"], streams)
    dtype = x.data.dtype
    # a single new position may see every key, so it needs no causal mask
    self_mask = causal_mask(past + S, dtype)[past:] if S > 1 else None
    # one rotation table per position array, shared by every layer
    if cache is None:
        self_table = _self_table(n, 0, S, config, dtype)
        dec_table = None
        if config.pm_rope_enabled:
            dec_table = rope_table(progress_ids(total_lens, S, config.progress_scale), rope,
                                   config.n_heads, dtype)
    else:
        # the cache's first pass, or one past its tables
        if cache.self_table is None or cache.self_table.cos.shape[1] < past + S:
            stop = max(past + S, cache.max_length)
            cache.self_table = _self_table(1, 0, stop, config, dtype)
            if config.pm_rope_enabled:
                cache.progress = rope_halves(progress_ids(total_lens, stop,
                                                          config.progress_scale), rope, dtype)
        self_table, dec_table = cache.tables(n, past, past + S, config.n_heads)
    cross_kv = {} if cache is None else cache.cross_kv
    if not cross_kv:  # no cache, or its first pass
        if config.pm_rope_enabled:
            enc_table = rope_table(progress_ids(text_lens, T, config.progress_scale), rope,
                                   config.n_heads, np.result_type(enc_states.data, dtype))
        for i in range(config.n_dec_layers):
            k = nm.matmul(enc_states, params[f"dec.{i}.cross.wk"])
            v = nm.matmul(enc_states, params[f"dec.{i}.cross.wv"])
            if config.pm_rope_enabled:
                k = rotate_heads(k, enc_table)
            cross_kv[f"dec.{i}.cross"] = (k, v)
    cross_mask = key_padding_mask(text_lens, T, dtype)
    for i in range(config.n_dec_layers):
        x = _self_attention_block(x, f"dec.{i}.self", self_table, self_mask,
                                  params, config, cache)
        x = _cross_attention_block(x, cross_kv[f"dec.{i}.cross"], f"dec.{i}.cross", dec_table,
                                   cross_mask, params, config)
        x = _ffn_block(x, f"dec.{i}.ffn", params)
    if cache is not None:
        cache.length += S
    h = nm.rms_norm(x, params["dec.norm"])
    return nm.matmul(nm.gelu(nm.matmul(h, params["head.w1"])), params["head.w2"])


def encode(text_tokens, params: ModelParams, config: ModelConfig) -> Tensor:
    """Bidirectional encoding of a text token sequence -> [T, d_model] states."""
    states, _ = encode_batch([text_tokens], params, config)
    return nm.reshape(states, states.data.shape[1:])


def decoder_forward(audio_tokens, enc_states: Tensor, total_len: int, params: ModelParams,
                    config: ModelConfig) -> Tensor:
    """Causal decoding pass over an audio token stream; returns [S, V+5] logits.

    enc_states are encode's [T, d_model] states. Decoder progress runs over
    total_len positions and encoder progress over the T encoder states. The
    stream may outgrow total_len (over-generation up to the length cap), in
    which case progress IDs extrapolate past the scale.
    """
    tokens = np.asarray(audio_tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("decoder input must be a nonempty token sequence")
    if tokens.min() < 0 or tokens.max() >= config.audio_vocab_ext:
        raise ValueError(f"audio token outside [0, {config.audio_vocab_ext})")
    if total_len < 1:
        raise ValueError(f"total_len must be positive, got {total_len}")
    states = nm.reshape(enc_states, (1,) + enc_states.data.shape)
    logits = decoder_batch(tokens[None, :], states, [enc_states.data.shape[0]], [total_len],
                           None, params, config)
    return nm.reshape(logits, (tokens.size, config.audio_vocab_ext))
