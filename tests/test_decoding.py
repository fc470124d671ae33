from dataclasses import replace

import numpy as np
import pytest

from oracles import generate_rescan
from pmrope.decoding import GenerationResult, SamplerConfig, filter_and_sample, generate
from pmrope.model import DecoderCache, SpecialTokens, decoder_batch, decoder_forward, encode
from pmrope.numerics import Tensor
from pmrope.positional import ProgressSchedule


def sample_many(logits, cfg, n=500, seed=0):
    rng = np.random.default_rng(seed)
    return [filter_and_sample(logits, cfg, rng) for _ in range(n)]


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
    enc_out = encode(text, params, config)
    prefix = [specials.bos, *prompt, specials.separator]
    stream = prefix + list(generated)
    dec_progress = ProgressSchedule(len(prefix) + target_len, config.progress_scale) \
        .position_ids(len(stream))[None, :]
    enc_progress = ProgressSchedule(enc_out.length, config.progress_scale).position_ids()[None, :]
    states = Tensor(enc_out.states.data[None])
    bounds = [(0, len(prefix))] + [(j, j + 1) for j in range(len(prefix), len(stream))]
    for start, end in bounds:
        logits = decoder_batch(np.array([stream[start:end]]), states, None,
                               dec_progress[:, start:end], enc_progress, params, config, cache)
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
        enc_out = encode(text, params, config)
        schedule_dec = ProgressSchedule(len(prompt) + 2 + target_len, config.progress_scale)
        schedule_enc = ProgressSchedule(enc_out.length, config.progress_scale)
        cache = DecoderCache()
        for stream, start, end, logits in cached_passes(text, prompt, target_len, generated,
                                                        params, config, cache):
            full = decoder_forward(stream[:end], enc_out, schedule_dec, schedule_enc,
                                   params, config)
            assert np.abs(logits - full.data[start:end]).max() <= tol, (start, end)
            assert cache.length == end
        for k, v in cache.self_kv.values():
            assert k.shape == v.shape == (1, len(stream), config.d_model)

    def test_cross_attention_projected_once(self, tiny_model):
        params, config = tiny_model
        cache = DecoderCache()
        first = None
        for _ in cached_passes([1, 2], [0], 3, [4, 5, 6], params, config, cache):
            if first is None:
                first = dict(cache.cross_kv)
        assert len(first) == config.n_dec_layers
        assert all(cache.cross_kv[name] is kv for name, kv in first.items())

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
