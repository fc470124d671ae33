from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generate_rescan, sample_row
from pmrope import checkpoint, decoding, synthcorpus
from pmrope.decoding import (
    MAX_TARGET_LEN,
    GenerationResult,
    SamplerConfig,
    filter_and_sample,
    generate,
    generate_batch,
)
from pmrope.model import DecoderCache, SpecialTokens, decoder_batch, decoder_forward, encode
from pmrope.numerics import Tensor


def sample_many(logits, cfg, n=500, seed=0):
    rng = np.random.default_rng(seed)
    return [int(filter_and_sample(np.asarray(logits)[None], cfg, [rng])[0]) for _ in range(n)]


def oracle_support(logits, cfg):
    """Filter rules reimplemented independently: temperature, top-k, nucleus."""
    z = np.asarray(logits, dtype=np.float64) / cfg.temperature
    p = np.exp(z - z.max())
    p = p / p.sum()
    ranked = sorted(range(len(p)), key=lambda i: (-p[i], i))
    kept = ranked[: cfg.top_k]
    support = []
    mass = 0.0
    for token in kept:
        support.append(token)
        mass += p[token]
        if mass >= cfg.top_p - 1e-12:
            break
    return set(support)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert (cfg.top_k, cfg.top_p, cfg.temperature) == (30, 0.9, 0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(top_k=0)
        with pytest.raises(ValueError):
            SamplerConfig(top_p=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(temperature=0.0)

    @pytest.mark.parametrize("temperature", [np.inf, np.nan, -np.inf])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            SamplerConfig(temperature=temperature)


class TestFilterAndSample:
    def test_top_k_one_is_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.normal(0, 3, 12)
            cfg = SamplerConfig(top_k=1, top_p=0.5, temperature=5.0)
            assert set(sample_many(logits, cfg, n=20)) == {int(np.argmax(logits))}

    def test_no_op_filters_sample_the_full_softmax(self):
        logits = np.log(np.array([0.4, 0.3, 0.2, 0.1]))
        cfg = SamplerConfig(top_k=4, top_p=1.0, temperature=1.0)
        draws = sample_many(logits, cfg, n=20000, seed=2)
        counts = np.bincount(draws, minlength=4) / len(draws)
        assert np.allclose(counts, [0.4, 0.3, 0.2, 0.1], atol=0.02)

    def test_nucleus_cut_at_cumulative_point_eight(self):
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        cfg = SamplerConfig(top_k=4, top_p=0.8, temperature=1.0)
        draws = sample_many(logits, cfg, n=2000, seed=3)
        assert set(draws) == {0, 1}

    def test_support_never_exceeds_oracle_enumeration(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            logits = rng.normal(0, 2, 6)
            cfg = SamplerConfig(top_k=int(rng.integers(1, 7)),
                                top_p=float(rng.uniform(0.2, 1.0)),
                                temperature=float(rng.uniform(0.3, 2.0)))
            expected = oracle_support(logits, cfg)
            draws = set(sample_many(logits, cfg, n=400, seed=trial))
            assert draws <= expected
            if len(expected) <= 3:
                assert draws == expected  # small supports get fully visited

    def test_near_zero_temperature_is_argmax(self):
        logits = np.random.default_rng(5).normal(0, 1, 10)
        cfg = SamplerConfig(top_k=10, top_p=1.0, temperature=1e-4)
        assert set(sample_many(logits, cfg, n=50)) == {int(np.argmax(logits))}

    def test_rng_state_fixes_the_draw(self):
        logits = np.random.default_rng(6).normal(0, 1, 8)
        cfg = SamplerConfig()
        a = sample_many(logits, cfg, n=25, seed=7)
        b = sample_many(logits, cfg, n=25, seed=7)
        assert a == b


@st.composite
def sampler_batches(draw):
    """[rows, V] logits with one sampler and per-row generator seeds. Rounded
    logits force ties, -inf columns are blocked (never a whole row), V and
    top_k reach past the default top_k of 30 and top_k runs past V, and top_p
    is 1, arbitrary, or the exact running mass of one row's sorted softmax at
    some rank, so that row's nucleus boundary lands on a tie."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = gen.normal(0.0, draw(st.sampled_from([0.5, 2.0, 8.0])), size=(rows, width))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        logits = np.round(logits, decimals)
    blocked = gen.random((rows, width)) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    blocked[np.arange(rows), gen.integers(0, width, size=rows)] = False
    logits[blocked] = -np.inf
    temperature = draw(st.sampled_from([0.05, 0.7, 1.0, 3.0]))
    z = logits[draw(st.integers(0, rows - 1))] / temperature
    p = np.exp(z - z.max())
    mass = np.cumsum(np.sort(p / p.sum())[::-1])
    top_p = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0),
                           st.sampled_from([min(float(m), 1.0) for m in mass])))
    sampler = SamplerConfig(top_k=draw(st.integers(1, width + 3)), top_p=top_p,
                            temperature=temperature)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows))
    return logits, sampler, seeds


class TestBatchedSampler:
    """filter_and_sample over many rows against the one-row rng.choice oracle."""

    @settings(max_examples=300, deadline=None)
    @given(sampler_batches())
    def test_draws_what_the_oracle_draws(self, batch):
        logits, sampler, seeds = batch
        fast = [np.random.default_rng(s) for s in seeds]
        slow = [np.random.default_rng(s) for s in seeds]
        for _ in range(3):  # the generators must also advance alike
            tokens = filter_and_sample(logits, sampler, fast)
            assert tokens.tolist() == [sample_row(row, sampler, rng)
                                       for row, rng in zip(logits, slow)]

    def test_nan_row_raises_by_name(self):
        logits = np.random.default_rng(0).normal(size=(4, 9))
        logits[2, 5] = np.nan
        rngs = [np.random.default_rng(i) for i in range(4)]
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError, match="row 2 are not finite"):
            filter_and_sample(logits, SamplerConfig(), rngs)
        # no row drew, the rows ahead of the bad one included
        assert [rng.bit_generator.state for rng in rngs] == states


class TestGenerate:
    def test_target_one_caps_at_two_tokens(self, tiny_model):
        params, config = tiny_model
        result = generate([1, 2], [], 1, params, config, SamplerConfig(seed=0))
        assert result.generated_len <= 2
        assert result.target_len == 1

    def test_same_seed_same_trajectory(self, tiny_model):
        params, config = tiny_model
        a = generate([1, 2, 3], [0, 1], 8, params, config, SamplerConfig(seed=11))
        b = generate([1, 2, 3], [0, 1], 8, params, config, SamplerConfig(seed=11))
        assert a.tokens == b.tokens and a.stop_reason == b.stop_reason

    def test_different_seeds_usually_differ(self, tiny_model):
        params, config = tiny_model
        results = {tuple(generate([1, 2, 3], [0, 1], 8, params, config,
                                  SamplerConfig(seed=s)).tokens) for s in range(6)}
        assert len(results) > 1

    def test_control_tokens_never_sampled(self, tiny_model):
        params, config = tiny_model
        specials = SpecialTokens.for_vocab(config.audio_vocab)
        blocked = {specials.pad, specials.separator, specials.bos}
        for seed in range(8):
            result = generate([1, 2], [0], 10, params, config, SamplerConfig(seed=seed))
            assert not blocked & set(result.tokens)

    def test_stop_reason_semantics(self, tiny_model):
        params, config = tiny_model
        for seed in range(8):
            result = generate([1], [], 5, params, config, SamplerConfig(seed=seed))
            assert result.generated_len == len(result.tokens)
            if result.stop_reason == "length_cap":
                assert result.generated_len == 6  # ceil(1.2 * 5)
            else:
                assert result.stop_reason == "eos"
                assert result.generated_len < 6

    def test_empty_prompt_allowed(self, tiny_model):
        params, config = tiny_model
        result = generate([1, 2], [], 4, params, config, SamplerConfig(seed=1))
        assert isinstance(result, GenerationResult)

    def test_invalid_target_rejected(self, tiny_model):
        params, config = tiny_model
        with pytest.raises(ValueError):
            generate([1], [], 0, params, config, SamplerConfig())


def cached_passes(text, prompt, target_len, generated, params, config, cache):
    """Drive the decoder as generate does, on fixed tokens: one prefill pass over
    bos + prompt + separator, then one pass per generated token. Yields the
    stream and each pass's (start, end, logits)."""
    specials = SpecialTokens.for_vocab(config.audio_vocab)
    enc_states = encode(text, params, config)
    prefix = [specials.bos, *prompt, specials.separator]
    stream = prefix + list(generated)
    states = Tensor(enc_states.data[None])
    bounds = [(0, len(prefix))] + [(j, j + 1) for j in range(len(prefix), len(stream))]
    for start, end in bounds:
        logits = decoder_batch(np.array([stream[start:end]]), states, [len(text)],
                               [len(prefix) + target_len], cache, params, config)
        yield stream, start, end, logits.data[0]


class TestIncrementalDecoding:
    """Each cached pass against a full decoder_forward rescan of the same stream."""

    # (prompt, target_len); every case decodes to the length cap, so all but
    # target_len = 1 run past total_len on extrapolated progress ids
    CASES = {"prompt": ([0, 1, 2], 6), "empty_prompt": ([], 4), "target_one": ([3], 1),
             "past_target": ([0, 5], 10)}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("pm_rope", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("model, tol", [("tiny_model", 1e-5), ("tiny_model_f64", 1e-10)],
                             ids=["f32", "f64"])
    def test_every_pass_matches_the_rescan(self, request, model, tol, pm_rope, case):
        params, config = request.getfixturevalue(model)
        config = replace(config, pm_rope_enabled=pm_rope)
        prompt, target_len = self.CASES[case]
        cap = -(-12 * target_len // 10)  # ceil(1.2 * target_len)
        generated = np.random.default_rng(len(prompt) + target_len).integers(
            0, config.audio_vocab, size=cap - 1)
        text = [1, 2, 3]
        enc_states = encode(text, params, config)
        cache = DecoderCache(len(prompt) + 2 + generated.size)
        for stream, start, end, logits in cached_passes(text, prompt, target_len, generated,
                                                        params, config, cache):
            full = decoder_forward(stream[:end], enc_states, len(prompt) + 2 + target_len,
                                   params, config)
            assert np.abs(logits - full.data[start:end]).max() <= tol, (start, end)
            assert cache.length == end  # advanced once per pass, by the pass's width
        for keys, values in cache._buffers.values():
            assert keys.shape == values.shape
            assert keys.shape[0] == 1 and keys.shape[1] >= len(stream) == cache.length

    def test_cross_attention_projected_once(self, tiny_model):
        params, config = tiny_model
        cache = DecoderCache(6)
        first = None
        for _ in cached_passes([1, 2], [0], 3, [4, 5, 6], params, config, cache):
            if first is None:
                first = dict(cache.cross_kv)
        assert len(first) == config.n_dec_layers
        assert all(cache.cross_kv[name] is kv for name, kv in first.items())

    @pytest.mark.parametrize("model, tol", [("tiny_model", 1e-5), ("tiny_model_f64", 1e-10)],
                             ids=["f32", "f64"])
    def test_growing_buffers_match_the_rescan_across_a_select(self, request, model, tol):
        params, config = request.getfixturevalue(model)
        specials = SpecialTokens.for_vocab(config.audio_vocab)
        rng = np.random.default_rng(17)
        texts = [[1, 2, 3], [4, 0, 5], [2, 2, 1]]
        targets = [9, 14, 11]
        streams = [[specials.bos, int(p), specials.separator] +
                   rng.integers(0, config.audio_vocab, size=16).tolist()
                   for p in rng.integers(0, config.audio_vocab, size=3)]
        encoded = [encode(text, params, config) for text in texts]
        total_lens = np.array([3 + target for target in targets])
        states = Tensor(np.stack([enc.data for enc in encoded]))
        rows = [0, 1, 2]  # the row each cache row decodes
        cache = DecoderCache(19)
        keys = None
        growths = 0
        for start, end in [(0, 3)] + [(j, j + 1) for j in range(3, 19)]:
            if start == 9:  # drop the middle row: the cache copies what it keeps
                cache.select([2, 0])
                rows = [2, 0]
                keys = cache._buffers["dec.0.self"][0]
            logits = decoder_batch(np.array([streams[r][start:end] for r in rows]),
                                   Tensor(states.data[rows]), [3] * len(rows),
                                   total_lens[rows], cache, params, config).data
            assert cache.length == end
            for row, r in enumerate(rows):
                full = decoder_forward(streams[r][:end], encoded[r], 3 + targets[r],
                                       params, config).data
                assert np.abs(logits[row] - full[start:end]).max() <= tol, (start, r)
            new_keys = cache._buffers["dec.0.self"][0]
            growths += keys is not None and not np.shares_memory(new_keys, keys)
            keys = new_keys
        # a 3-position prefill, then 16 single positions: capacity 3 -> 6 -> 12 -> 24
        assert growths == 3

    @pytest.mark.parametrize("model", ["tiny_model", "tiny_model_f64"])
    def test_generate_matches_the_rescan_oracle(self, request, model):
        params, config = request.getfixturevalue(model)
        reasons = set()
        for pm_rope in (True, False):
            cfg = replace(config, pm_rope_enabled=pm_rope)
            for seed in range(8):
                sampler = SamplerConfig(top_k=13, top_p=1.0, temperature=1.0, seed=seed)
                fast = generate([1, 2, 3], [0, 1], 12, params, cfg, sampler)
                slow = generate_rescan([1, 2, 3], [0, 1], 12, params, cfg, sampler)
                assert (fast.tokens, fast.stop_reason) == (slow.tokens, slow.stop_reason)
                reasons.add(fast.stop_reason)
        assert reasons == {"eos", "length_cap"}


class TestLockstepDecoding:
    """generate_batch against per-row references: the rescan oracle's tokens,
    and a decoder_forward rescan of each row alone for every pass's logits."""

    # one prompt length, so one lockstep batch: ragged texts (encoder pads) and
    # ragged targets, target_len = 1 among them; with the full support below
    # rows stop at eos and at the cap, after different numbers of steps
    LOCKSTEP = [([1, 2, 3], [0, 1], 12), ([4], [5, 2], 5), ([2, 5, 0, 1, 3], [3, 3], 1),
                ([3, 3, 3, 3, 3, 3, 3], [2, 0], 9)]
    # prompt lengths 2, 0, 2, 3, 0, 3, 2: one batch per length
    MIXED = [([1, 2, 3], [0, 1], 12), ([4], [], 5), ([2, 5, 0, 1, 3], [3, 3], 1),
             ([0, 1], [6, 4, 1], 9), ([3, 3, 3, 3, 3, 3, 3], [], 3), ([5], [2, 2, 2], 4),
             ([1, 1], [7, 0], 7)]

    @staticmethod
    def sampler(seed):  # the full support: rows stop at eos and at the cap
        return SamplerConfig(top_k=13, top_p=1.0, temperature=1.0, seed=10 * seed)

    @pytest.mark.parametrize("model", ["tiny_model", "tiny_model_f64"])
    def test_rows_match_the_rescan_oracle(self, request, model):
        params, config = request.getfixturevalue(model)
        reasons = set()
        ragged_finish = False
        for pm_rope in (True, False):
            cfg = replace(config, pm_rope_enabled=pm_rope)
            for seed in range(8):
                sampler = self.sampler(seed)
                for length in sorted({len(prompt) for _, prompt, _ in self.MIXED}):
                    batch = [r for r in self.MIXED if len(r[1]) == length]
                    results = generate_batch(batch, params, cfg, sampler)
                    for i, ((text, prompt, target_len), fast) in enumerate(zip(batch, results)):
                        slow = generate_rescan(text, prompt, target_len, params, cfg,
                                               replace(sampler, seed=sampler.seed + i))
                        assert (fast.tokens, fast.stop_reason) == (slow.tokens,
                                                                   slow.stop_reason)
                        assert fast.target_len == target_len
                        reasons.add(fast.stop_reason)
                    ragged_finish |= len({r.generated_len for r in results}) > 1
        assert reasons == {"eos", "length_cap"}
        assert ragged_finish

    @pytest.mark.parametrize("pm_rope", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("model, tol", [("tiny_model", 1e-5), ("tiny_model_f64", 1e-10)],
                             ids=["f32", "f64"])
    def test_every_pass_matches_a_rescan_of_each_row(self, request, monkeypatch, model, tol,
                                                     pm_rope):
        params, config = request.getfixturevalue(model)
        config = replace(config, pm_rope_enabled=pm_rope)
        specials = SpecialTokens.for_vocab(config.audio_vocab)
        passes = []

        def recording(*args, **kwargs):
            logits = decoder_batch(*args, **kwargs)
            passes.append(logits.data.copy())
            return logits

        monkeypatch.setattr(decoding, "decoder_batch", recording)
        reasons = set()
        ragged_finish = False
        for seed in range(3):
            passes.clear()
            results = generate_batch(self.LOCKSTEP, params, config, self.sampler(seed))
            # a row takes part in one pass per token it sampled, eos included
            steps = [r.generated_len + (r.stop_reason == "eos") for r in results]
            assert len(passes) == max(steps)
            reasons |= {r.stop_reason for r in results}
            ragged_finish |= len(set(steps)) > 1
            for k, logits in enumerate(passes):
                live = [i for i in range(len(results)) if steps[i] > k]
                assert logits.shape[0] == len(live)
                for row, i in enumerate(live):
                    text, prompt, target_len = self.LOCKSTEP[i]
                    prefix = [specials.bos, *prompt, specials.separator]
                    stream = prefix + results[i].tokens[:k]
                    full = decoder_forward(stream, encode(text, params, config),
                                           len(prefix) + target_len, params, config).data
                    want = full if k == 0 else full[-1:]
                    assert np.abs(logits[row] - want).max() <= tol, (seed, k, i)
        assert reasons == {"eos", "length_cap"}
        assert ragged_finish

    def test_select_keeps_rows(self, tiny_model):
        params, config = tiny_model
        streams = np.array([[8, 1, 12], [8, 2, 12]])
        states = Tensor(np.random.default_rng(0).normal(size=(2, 3, config.d_model)))
        cache = DecoderCache(3)
        decoder_batch(streams, states, [3, 3], [3, 3], cache, params, config)

        def stored(cache):  # the filled part of every layer's keys and values
            kv = {name: (k[:, :cache.length], v[:, :cache.length])
                  for name, (k, v) in cache._buffers.items()}
            kv.update((name, (k.data, v.data)) for name, (k, v) in cache.cross_kv.items())
            return kv

        before = stored(cache)
        assert len(before) == 2 * config.n_dec_layers
        cache.select([1, 0])
        cache.select([1])
        assert cache.length == 3
        for name, (k, v) in stored(cache).items():
            assert k.shape == v.shape == (1, 3, config.d_model)
            assert (k[0] == before[name][0][0]).all()
            assert (v[0] == before[name][1][0]).all()

    def test_mixed_prompt_lengths_raise_before_any_work(self, tiny_model, monkeypatch):
        params, config = tiny_model
        calls = []
        monkeypatch.setattr(decoding, "encode_batch", lambda *args: calls.append(args))
        monkeypatch.setattr(decoding, "decoder_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"one length, got lengths \[0, 2\]"):
            generate_batch(self.MIXED[:2], params, config, SamplerConfig())
        assert generate_batch([], params, config, SamplerConfig()) == []
        assert calls == []

    @pytest.mark.parametrize("bad, message", [
        (([1], [], 0), "target_len must be >= 1"),
        (([], [], 3), "nonempty token sequence"),
        (([1, 6], [], 3), r"text token outside \[0, 6\)"),
        (([1], [], MAX_TARGET_LEN + 1), f"MAX_TARGET_LEN = {MAX_TARGET_LEN}"),
        (([1], [], 10**12), f"MAX_TARGET_LEN = {MAX_TARGET_LEN}"),
    ], ids=["target_zero", "empty_text", "text_token_out_of_range", "target_above_limit",
            "target_huge"])
    def test_bad_requests_raise_what_generate_raises(self, tiny_model, monkeypatch, bad,
                                                     message):
        params, config = tiny_model
        with pytest.raises(ValueError, match=message):
            generate(*bad, params, config, SamplerConfig())
        calls = []
        monkeypatch.setattr(decoding, "decoder_batch", lambda *args: calls.append(args))
        # the bad request comes last: it must fail before any decoder pass
        with pytest.raises(ValueError, match=message):
            generate_batch([([2], [], 4), ([3, 1], [], 2), bad], params, config,
                           SamplerConfig())
        assert calls == []


REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference" / "reference.pmrt"


@pytest.mark.parametrize("pm_rope", [True, False], ids=["on", "off"])
def test_reference_checkpoint_samples_what_the_oracle_samples(monkeypatch, pm_rope):
    """The trained reference model's logits, not random ones: a 2-D row
    reduction may round differently from a 1-D one, and so flip a draw."""
    params = checkpoint.load_checkpoint(REFERENCE)
    config = replace(params.config, pm_rope_enabled=pm_rope)
    corpus = synthcorpus.generate_corpus(synthcorpus.CorpusConfig(seed=0), config.audio_vocab)
    requests = [(u.text, synthcorpus.prompt_for(u, corpus.spec), u.duration_tokens)
                for u in corpus.test[:40]]
    sampler = SamplerConfig(seed=1000)
    fast = generate_batch(requests, params, config, sampler)

    def row_by_row(logits, sampler, rngs):
        return np.array([sample_row(row, sampler, rng) for row, rng in zip(logits, rngs)])

    monkeypatch.setattr(decoding, "filter_and_sample", row_by_row)
    slow = generate_batch(requests, params, config, sampler)
    assert [(r.tokens, r.stop_reason) for r in fast] == [(r.tokens, r.stop_reason) for r in slow]
    assert sum(r.generated_len for r in fast) > 10 * len(requests)
    assert {r.stop_reason for r in fast} == {"eos", "length_cap"}


@pytest.mark.parametrize("sampler", [SamplerConfig(seed=1000),
                                     SamplerConfig(top_k=5, top_p=0.7, temperature=1.3, seed=7)],
                         ids=["default", "top_k_5_top_p_0.7_temperature_1.3"])
def test_row_i_of_a_batch_is_generate_with_seed_plus_i(sampler):
    params = checkpoint.load_checkpoint(REFERENCE)
    corpus = synthcorpus.generate_corpus(synthcorpus.CorpusConfig(seed=0),
                                         params.config.audio_vocab)
    requests = [(u.text, synthcorpus.prompt_for(u, corpus.spec), u.duration_tokens)
                for u in corpus.test[:40]]
    batch = generate_batch(requests, params, params.config, sampler)
    alone = [generate(*request, params, params.config, replace(sampler, seed=sampler.seed + i))
             for i, request in enumerate(requests)]
    assert batch == alone
    assert {r.stop_reason for r in batch} == {"eos", "length_cap"}
