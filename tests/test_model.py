import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import finite_diff_grad, max_rel_err, whole_batch_loss
from pmrope import decoding, model, training
from pmrope import numerics as nm
from pmrope.model import (
    DecoderCache,
    ModelConfig,
    SpecialTokens,
    attention,
    causal_mask,
    decoder_batch,
    decoder_forward,
    encode,
    encode_batch,
    init_params,
    key_padding_mask,
)
from pmrope.positional import progress_ids, rope_table
from pmrope.synthcorpus import CorpusConfig, generate_corpus
from pmrope.numerics import ShapeError, Tape, Tensor


class TestConfig:
    def test_width_consistency_enforced(self):
        with pytest.raises(ValueError, match="d_model"):
            ModelConfig(d_model=64, n_heads=4, head_dim=8)

    @pytest.mark.parametrize("values, field", [
        ({"d_model": 28, "head_dim": 7}, "head_dim"),
        ({"rope_base": math.inf}, "rope_base"),
        ({"rope_base": math.nan}, "rope_base"),
        ({"progress_scale": math.nan}, "progress_scale"),
        ({"progress_scale": -1.0}, "progress_scale"),
        ({"progress_scale": math.inf}, "progress_scale"),
    ])
    def test_rotation_fields_checked_at_construction(self, values, field):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**values)

    def test_extended_vocab_adds_exactly_five(self):
        assert ModelConfig().audio_vocab_ext == 64 + 5

    def test_special_token_ids(self):
        sp = SpecialTokens.for_vocab(64)
        assert (sp.bos, sp.eos, sp.pad, sp.silence, sp.separator) == (64, 65, 66, 67, 68)


class TestInitParams:
    def test_same_seed_is_bitwise_identical(self, tiny_config):
        a = init_params(tiny_config, seed=11)
        b = init_params(tiny_config, seed=11)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seeds_differ(self, tiny_config):
        a = init_params(tiny_config, seed=11)
        b = init_params(tiny_config, seed=12)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a.tensors)

    def test_initial_loss_near_log_vocab(self):
        config = ModelConfig()  # reference width; narrow toys start further off
        params = init_params(config, seed=0)
        rng = np.random.default_rng(0)
        stream = rng.integers(0, config.audio_vocab, 40)
        enc = encode(rng.integers(0, config.text_vocab, 5), params, config)
        logits = decoder_forward(stream, enc, 40, params, config)
        targets = rng.integers(0, config.audio_vocab, 40)
        loss = nm.cross_entropy(logits, targets).item()
        assert abs(loss - math.log(config.audio_vocab_ext)) / math.log(config.audio_vocab_ext) <= 0.15


class TestEncode:
    def test_output_shape(self, tiny_model):
        params, config = tiny_model
        assert encode([0, 1, 2, 3], params, config).shape == (4, config.d_model)

    def test_token_permutation_changes_output(self, tiny_model):
        params, config = tiny_model
        a = encode([1, 2, 3, 4], params, config).data
        b = encode([2, 1, 3, 4], params, config).data
        assert not np.allclose(a, b)

    def test_single_token_input(self, tiny_model):
        params, config = tiny_model
        out = encode([3], params, config)
        assert out.shape == (1, config.d_model)
        assert np.all(np.isfinite(out.data))

    def test_empty_input_rejected(self, tiny_model):
        params, config = tiny_model
        with pytest.raises(ValueError, match="nonempty"):
            encode([], params, config)

    def test_out_of_range_token_rejected(self, tiny_model):
        params, config = tiny_model
        with pytest.raises(ValueError, match="token"):
            encode([config.text_vocab], params, config)


class TestDecoderForward:
    def test_logits_shape_is_extended_vocab(self, tiny_model):
        params, config = tiny_model
        enc = encode([1, 2], params, config)
        logits = decoder_forward([0, 1, 2], enc, 3, params, config)
        assert logits.shape == (3, config.audio_vocab + 5)

    def test_causality_by_perturbation(self, tiny_model):
        params, config = tiny_model
        enc = encode([1, 2, 3], params, config)
        stream = [8, 1, 2, 3, 4, 5]
        base = decoder_forward(stream, enc, 6, params, config).data
        for t in range(1, 6):
            perturbed = list(stream)
            perturbed[t] = (perturbed[t] + 1) % config.audio_vocab
            out = decoder_forward(perturbed, enc, 6, params, config).data
            assert np.array_equal(out[:t], base[:t])
            assert not np.allclose(out[t:], base[t:])

    def test_inference_may_overflow_schedule(self, tiny_model):
        params, config = tiny_model
        enc = encode([1], params, config)
        out = decoder_forward([0, 1, 2, 3], enc, 3, params, config)
        assert np.all(np.isfinite(out.data))

    def test_progress_is_progress_ids_of_total_len_and_encoder_length(self, tiny_model):
        # a prefix of a longer stream, as decoding runs it
        params, config = tiny_model
        enc = encode([1, 2, 3], params, config)
        stream = [8, 1, 2, 3]
        got = decoder_forward(stream, enc, 10, params, config)
        want = decoder_batch(np.array([stream]), nm.reshape(enc, (1, 3, config.d_model)), [3],
                             [10], None, params, config)
        assert got.data.tobytes() == want.data[0].tobytes()
        assert not np.allclose(got.data, decoder_forward(stream, enc, 4, params, config).data)

    def test_total_len_must_be_positive(self, tiny_model):
        params, config = tiny_model
        with pytest.raises(ValueError, match="total_len"):
            decoder_forward([0], encode([1], params, config), 0, params, config)

    def test_token_out_of_range(self, tiny_model):
        params, config = tiny_model
        enc = encode([1], params, config)
        with pytest.raises(ValueError, match="audio token"):
            decoder_forward([config.audio_vocab_ext], enc, 1, params, config)

    @pytest.mark.parametrize("seed", range(3))
    def test_disabled_rotation_equals_zero_progress_bitwise(self, tiny_config, seed):
        params = init_params(tiny_config, seed=seed)
        rng = np.random.default_rng(seed)
        text = rng.integers(0, tiny_config.text_vocab, 4)
        stream = rng.integers(0, tiny_config.audio_vocab_ext, 9)
        enc = encode(text, params, tiny_config)

        cfg_on_zero = replace(tiny_config, pm_rope_enabled=True, progress_scale=0.0)
        cfg_off = replace(tiny_config, pm_rope_enabled=False)
        on_zero = decoder_forward(stream, enc, 9, params, cfg_on_zero)
        off = decoder_forward(stream, enc, 9, params, cfg_off)
        assert np.all(on_zero.data == off.data)

    def test_rotation_changes_logits_when_enabled(self, tiny_model):
        params, config = tiny_model
        enc = encode([1, 2, 3], params, config)
        stream = [8, 1, 2, 3]
        with_progress = decoder_forward(stream, enc, 4, params, config).data
        zeroed = decoder_forward(stream, enc, 4, params,
                                 replace(config, progress_scale=0.0)).data
        assert not np.allclose(with_progress, zeroed)

    def test_text_conditioning_is_live(self, tiny_config):
        changed = 0
        for seed in range(10):
            params = init_params(tiny_config, seed=100 + seed)
            stream = [8, 1, 2, 3, 4]
            a = decoder_forward(stream, encode([1, 2, 3], params, tiny_config), 5,
                                params, tiny_config).data
            b = decoder_forward(stream, encode([1, 2, 4], params, tiny_config), 5,
                                params, tiny_config).data
            if not np.allclose(a, b):
                changed += 1
        assert changed == 10


class TestAttention:
    def test_zero_mask_matches_manual_softmax(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(0, 1, (3, 8)))
        k = Tensor(rng.normal(0, 1, (5, 8)))
        v = Tensor(rng.normal(0, 1, (5, 8)))
        out = attention(q, k, v, n_heads=2).data
        for h in range(2):
            qs = q.data[:, 4 * h:4 * h + 4]
            ks = k.data[:, 4 * h:4 * h + 4]
            vs = v.data[:, 4 * h:4 * h + 4]
            scores = qs @ ks.T / 2.0
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            assert np.allclose(out[:, 4 * h:4 * h + 4], w @ vs, atol=1e-12)

    def test_causal_mask_blocks_future(self):
        m = causal_mask(4, np.float64)
        assert np.all(m[np.triu_indices(4, k=1)] == -np.inf)
        assert np.all(m[np.tril_indices(4)] == 0.0)

    @pytest.mark.parametrize("lens", [[4], [4, 4, 4], [5, 4]])
    def test_key_padding_mask_is_none_when_no_row_is_short(self, lens):
        assert key_padding_mask(lens, 4, np.float32) is None

    def test_key_padding_mask_hides_each_row_from_its_length_on(self):
        m = key_padding_mask(np.array([3, 1, 5]), 5, np.float32)
        assert m.shape == (3, 1, 1, 5) and m.dtype == np.float32
        hidden = np.arange(5) >= np.array([3, 1, 5])[:, None]
        assert np.all(m[:, 0, 0][hidden] == -np.inf)
        assert np.all(m[:, 0, 0][~hidden] == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(0, 1, (3, 8)), requires_grad=True)
        k = Tensor(rng.normal(0, 1, (4, 8)), requires_grad=True)
        v = Tensor(rng.normal(0, 1, (4, 8)), requires_grad=True)
        w = rng.normal(0, 1, (3, 8))
        mask = causal_mask(4, np.float64)[:3, :]

        def loss_fn():
            return float((attention(q, k, v, 2, mask).data * w).sum())

        with Tape() as tape:
            loss = nm.sum_all(nm.mul(attention(q, k, v, 2, mask), Tensor(w)))
        tape.backward(loss)
        for t in (q, k, v):
            assert max_rel_err(t.grad, finite_diff_grad(loss_fn, t)) <= 1e-4


class TestEndToEndGradients:
    def test_every_parameter_matches_finite_differences(self, tiny_model_f64):
        params, config = tiny_model_f64
        text = [1, 4, 2]
        stream = [8, 3, 1, 12, 5, 2, 9]
        targets = list(stream[1:]) + [9]

        def loss_fn():
            enc = encode(text, params, config)
            logits = decoder_forward(stream, enc, len(stream), params, config)
            return nm.cross_entropy(logits, targets).item()

        with Tape() as tape:
            enc = encode(text, params, config)
            logits = decoder_forward(stream, enc, len(stream), params, config)
            loss = nm.cross_entropy(logits, targets)
        tape.backward(loss)

        for name, tensor in params.items():
            fd = finite_diff_grad(loss_fn, tensor)
            assert max_rel_err(tensor.grad, fd) <= 1e-4, name


class TestRotationTables:
    """A pass builds one rotation table, or rope_halves, per distinct position
    array and every rotation of the pass reuses it."""

    @staticmethod
    def record_builds(monkeypatch) -> list:
        """Position-array shapes of every table or rope_halves built from now on."""
        shapes = []

        def counted(build):
            def call(positions, *args):
                shapes.append(np.shape(positions))
                return build(positions, *args)
            return call

        for name in ("rope_table", "rope_halves"):
            monkeypatch.setattr(model, name, counted(getattr(model, name)))
        return shapes

    @pytest.mark.parametrize("pm_rope, want", [(True, [(1, 6), (2, 6), (2, 3)]),
                                               (False, [(1, 6)])], ids=["on", "off"])
    def test_cached_decode_step(self, tiny_model, monkeypatch, pm_rope, want):
        params, config = tiny_model
        config = replace(config, pm_rope_enabled=pm_rope)
        states = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8)).astype(np.float32))
        cache = DecoderCache(6)
        shapes = self.record_builds(monkeypatch)
        decoder_batch(np.array([[8, 1, 9], [8, 2, 9]]), states, [3, 3], [6, 6], cache,
                      params, config)
        assert shapes == want  # self positions and progress up to max_length, encoder progress
        decoder_batch(np.array([[3], [4]]), states, [3, 3], [6, 6], cache, params, config)
        assert shapes == want  # the step slices the cache's tables

    def test_training_forward_pass(self, monkeypatch):
        config = ModelConfig(n_enc_layers=2, n_dec_layers=3, d_model=16, n_heads=2,
                             head_dim=8, ffn_dim=32)
        params = init_params(config, seed=0)
        corpus = generate_corpus(CorpusConfig(n_train=6, n_val=2, n_test=2, seed=4),
                                 config.audio_vocab)
        specials = SpecialTokens.for_vocab(config.audio_vocab)
        examples = [training.build_example(u, corpus.spec, specials) for u in corpus.train]
        batch = training.make_batches(examples, 4096, seed=0, pad_id=specials.pad)[0]
        passes = []
        forward = training.decoder_batch

        def counted_pass(streams, states, *rest):
            passes.append((streams.shape, states.data.shape[1]))
            return forward(streams, states, *rest)

        monkeypatch.setattr(training, "decoder_batch", counted_pass)
        shapes = self.record_builds(monkeypatch)
        with nm.Tape() as tape:
            loss, _ = whole_batch_loss(batch, params, config, mask_prompt=True)
        tape.backward(loss)
        assert passes
        want = []
        for (n, S), T in passes:  # encoder self; decoder self, decoder and encoder progress
            want += [(1, T), (1, S), (n, S), (n, T)]
        assert shapes == want


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestPrefillTables:
    """A decode batch's cache builds its rotation inputs on its first pass,
    and every pass cuts its columns from them."""

    @pytest.mark.parametrize("pm_rope", [True, False], ids=["on", "off"])
    def test_each_pass_gets_the_tables_it_would_build(self, pm_rope):
        config = replace(ModelConfig(), pm_rope_enabled=pm_rope)
        params = init_params(config, seed=3)
        specials = SpecialTokens.for_vocab(config.audio_vocab)
        rope = model._rope_params(config.head_dim, config.rope_base)
        states, text_lens = encode_batch([[1, 2], [3, 4, 5, 6], [7], [2, 2, 2]], params, config)
        # mixed totals: all rows but row 1 run past theirs, so their progress extrapolates
        totals = np.array([5, 40, 3, 23])
        live = np.arange(4)
        streams = np.array([[specials.bos, 5, specials.separator]] * 4)
        cache = DecoderCache(30)
        rng = np.random.default_rng(0)
        for step in range(27):
            past, width = cache.length, streams.shape[1]
            decoder_batch(streams, states, text_lens[live], totals[live], cache, params, config)
            n = live.size
            self_table, dec_table = model._pass_tables(cache.positions, cache.progress, past,
                                                       past + width, config.n_heads)
            # what a pass would build for its own positions alone
            columns = np.arange(past, past + width, dtype=np.float64)
            want = rope_table(columns[None], rope, config.n_heads, np.float32)
            assert all(map(same_bits, self_table, want))
            if pm_rope:
                ids = progress_ids(totals[live], past + width, config.progress_scale)[:, past:]
                want = rope_table(ids, rope, config.n_heads, np.float32)
                assert all(map(same_bits, dec_table, want))
            else:
                assert dec_table is None
            if step in (8, 15):  # drop a row, as a stop would
                keep = np.delete(np.arange(n), step % 3)
                cache.select(keep)
                live = live[keep]
            streams = rng.integers(0, config.audio_vocab, size=(live.size, 1))
        assert cache.length == 3 + 26 and cache.positions.cos.shape[1] == 30  # never rebuilt

    def test_a_pass_past_max_length_raises_and_leaves_the_cache(self, tiny_model):
        params, config = tiny_model
        states = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8)).astype(np.float32))

        def run(streams):
            decoder_batch(np.array(streams), states, [3, 3], [6, 6], cache, params, config)

        cache = DecoderCache(4)
        run([[8, 1, 9], [8, 2, 9]])
        before = {name: (k.copy(), v.copy()) for name, (k, v) in cache._buffers.items()}
        with pytest.raises(ShapeError):
            run([[3, 5], [4, 6]])  # positions 3 and 4: one past max_length
        assert cache.length == 3 and cache._buffers.keys() == before.keys()
        for name, buffers in cache._buffers.items():
            assert all(map(same_bits, buffers, before[name])), name
        run([[3], [4]])  # the cache still runs up to max_length
        assert cache.length == 4

    def test_built_once_per_generate_batch(self, monkeypatch):
        config = ModelConfig(n_enc_layers=1, n_dec_layers=2, d_model=16, n_heads=2,
                             head_dim=8, ffn_dim=32)
        params = init_params(config, seed=1)
        calls = {"rope_table": 0, "progress_ids": 0, "decoder_batch": 0}

        def counted(name):
            fn = getattr(model, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(model, name, counted(name))
        monkeypatch.setattr(decoding, "decoder_batch", model.decoder_batch)
        seen = []
        for target in (4, 30, 90):
            for name in calls:
                calls[name] = 0
            # top_k 1 takes the argmax, which here is never eos: every row runs to its cap
            results = decoding.generate_batch([([1, 2, 3], [4, 5], target), ([4], [6, 7], 2)],
                                              params, config, decoding.SamplerConfig(top_k=1))
            assert [r.stop_reason for r in results] == ["length_cap", "length_cap"]
            assert calls["decoder_batch"] == math.ceil(1.2 * target)
            seen.append((calls["rope_table"], calls["progress_ids"]))
        # rope_table: the encoder's and the decoder's self tables and the encoder's
        # progress; progress_ids: the encoder's and the decoder's progress
        assert seen == [(3, 2)] * 3
