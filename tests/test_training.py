import math
import mmap
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from oracles import _example_loss, whole_batch_loss
from pmrope import numerics as nm
from pmrope.model import ModelConfig, SpecialTokens, init_params
from pmrope.numerics import Tape, Tensor
from pmrope import training, workers
from pmrope.synthcorpus import CorpusConfig, generate_corpus
from pmrope.training import (
    ADAM_EPS,
    DivergenceError,
    OptimState,
    TrainConfig,
    adamw_step,
    build_example,
    clip_gradients,
    lr_at,
    make_batches,
    train,
)


class TestLrSchedule:
    def setup_method(self):
        self.cfg = TrainConfig(total_steps=1000, warmup_fraction=0.02, peak_lr=1e-4)

    def test_endpoints(self):
        assert lr_at(0, self.cfg) == 0.0
        assert lr_at(20, self.cfg) == 1e-4  # warmup end = ceil(0.02 * 1000)
        assert lr_at(1000, self.cfg) == 0.0

    def test_peak_is_the_maximum(self):
        values = [lr_at(s, self.cfg) for s in range(1001)]
        assert max(values) == 1e-4
        assert values.index(max(values)) == 20

    def test_piecewise_linear_and_continuous(self):
        values = np.array([lr_at(s, self.cfg) for s in range(1001)])
        diffs = np.diff(values)
        assert np.allclose(diffs[:20], diffs[0])
        assert np.allclose(diffs[20:], diffs[-1])
        assert diffs[0] > 0 > diffs[-1]

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            lr_at(-1, self.cfg)
        with pytest.raises(ValueError):
            lr_at(1001, self.cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(warmup_fraction=0.0)
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=0.0)


def params_with_grads(grads):
    """Minimal ModelParams stand-in: dict of tensors with preset gradients."""
    from pmrope.model import ModelParams

    tensors = {}
    for i, g in enumerate(grads):
        t = Tensor(np.zeros_like(np.asarray(g, dtype=np.float64)), requires_grad=True)
        t.grad[...] = g
        tensors[f"p{i}.w"] = t
    return ModelParams(tensors, None)


class TestClipGradients:
    def test_small_norm_untouched(self):
        params = params_with_grads([np.array([0.3, 0.4])])  # norm 0.5
        clip_gradients(params, 1.0)
        assert np.allclose(params["p0.w"].grad, [0.3, 0.4])

    def test_large_norm_scaled_to_clip(self):
        params = params_with_grads([np.array([4.0, 0.0]), np.array([0.0, 0.0])])
        pre = clip_gradients(params, 1.0)
        assert pre == pytest.approx(4.0)
        assert np.allclose(params["p0.w"].grad, [1.0, 0.0])

    def test_direction_preserved(self):
        rng = np.random.default_rng(0)
        g = rng.normal(0, 3, (5, 5))
        params = params_with_grads([g])
        clip_gradients(params, 1.0)
        after = params["p0.w"].grad.reshape(-1)
        before = g.reshape(-1)
        cos = after @ before / (np.linalg.norm(after) * np.linalg.norm(before))
        assert abs(cos - 1.0) <= 1e-9

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            params = params_with_grads([rng.normal(0, trial + 0.1, (3, 4))])
            clip_gradients(params, 1.0)
            norm = np.linalg.norm(params["p0.w"].grad)
            assert norm <= 1.0 + 1e-9


class TestAdamW:
    def run_step(self, grad, lr=0.1, weight_decay=0.0, start=1.0):
        params = params_with_grads([np.array([grad])])
        params["p0.w"].data[...] = start
        cfg = TrainConfig(peak_lr=lr, weight_decay=weight_decay, total_steps=10)
        state = OptimState.for_params(params)
        adamw_step(params, state, lr, cfg)
        return float(params["p0.w"].data[0])

    def test_zero_gradient_zero_decay_is_identity(self):
        assert self.run_step(grad=0.0, weight_decay=0.0, start=1.0) == 1.0

    def test_first_step_magnitude_is_bias_corrected(self):
        # closed form at step 1: m_hat = g, v_hat = g^2, update = lr * g/(|g| + eps)
        end = self.run_step(grad=1.0, lr=0.1, start=0.0)
        assert end == pytest.approx(-0.1 * 1.0 / (1.0 + ADAM_EPS), rel=1e-9)

    def test_decay_only_shrinks_by_lr_times_wd(self):
        end = self.run_step(grad=0.0, lr=0.1, weight_decay=0.01, start=1.0)
        assert end == pytest.approx(1.0 - 0.001, rel=1e-12)

    def test_gains_and_embeddings_skip_decay(self):
        from pmrope.model import ModelParams

        gain = Tensor(np.ones(3), requires_grad=True)
        emb = Tensor(np.ones((2, 3)), requires_grad=True)
        params = ModelParams({"enc.0.attn.norm": gain, "text_emb": emb}, None)
        cfg = TrainConfig(peak_lr=0.1, weight_decay=0.5, total_steps=10)
        adamw_step(params, OptimState.for_params(params), 0.1, cfg)
        assert np.array_equal(gain.data, np.ones(3))
        assert np.array_equal(emb.data, np.ones((2, 3)))

    def test_non_finite_gradient_aborts_without_update(self):
        params = params_with_grads([np.array([1.0]), np.array([np.nan])])
        params["p0.w"].data[...] = 2.0
        cfg = TrainConfig(peak_lr=0.1, total_steps=10)
        state = OptimState.for_params(params)
        with pytest.raises(DivergenceError, match="non-finite"):
            adamw_step(params, state, 0.1, cfg)
        assert float(params["p0.w"].data[0]) == 2.0
        assert state.step == 0


def small_corpus(n_train=12, n_val=6, seed=0):
    cfg = CorpusConfig(n_train=n_train, n_val=n_val, n_test=6, seed=seed)
    return generate_corpus(cfg, audio_vocab=64)


def corpus_examples(corpus, model_config):
    specials = SpecialTokens.for_vocab(model_config.audio_vocab)
    return [build_example(u, corpus.spec, specials) for u in corpus.train]


class TestBatching:
    def setup_method(self):
        self.model_config = ModelConfig()
        self.corpus = small_corpus()
        self.examples = corpus_examples(self.corpus, self.model_config)
        self.pad = SpecialTokens.for_vocab(64).pad

    def test_greedy_packing_arithmetic(self):
        from pmrope.training import DecoderExample

        examples = [DecoderExample(text=np.array([0]), stream=np.arange(10), prompt_len=2)
                    for _ in range(3)]
        batches = make_batches(examples, token_budget=25, seed=0, pad_id=99)
        assert sorted(len(b.examples) for b in batches) == [1, 2]

    def test_deterministic_under_seed(self):
        a = make_batches(self.examples, 512, seed=3, pad_id=self.pad)
        b = make_batches(self.examples, 512, seed=3, pad_id=self.pad)
        assert len(a) == len(b)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.tokens, bb.tokens)

    def test_token_conservation(self):
        batches = make_batches(self.examples, 512, seed=4, pad_id=self.pad)
        total = sum(int(b.lengths.sum()) for b in batches)
        assert total == sum(len(ex.stream) for ex in self.examples)

    def test_budget_respected(self):
        batches = make_batches(self.examples, 256, seed=5, pad_id=self.pad)
        for b in batches:
            assert int(b.lengths.sum()) <= 256

    def test_padding_uses_pad_id_and_is_outside_lengths(self):
        batches = make_batches(self.examples, 512, seed=6, pad_id=self.pad)
        for b in batches:
            for row, length in enumerate(b.lengths):
                assert np.all(b.tokens[row, length:] == self.pad)
                assert np.all(b.tokens[row, :length] != self.pad)

    def test_oversized_utterance_named(self):
        with pytest.raises(ValueError, match="utterance #"):
            make_batches(self.examples, token_budget=10, seed=0, pad_id=self.pad)


class TestValidationSelection:
    """train() keeps the parameters of the first validation minimum."""

    MODEL = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=16, n_heads=2, head_dim=8,
                        ffn_dim=32)

    def train_on_scripted_curve(self, monkeypatch, val_losses):
        # evaluate_loss is called for the initial train loss, then once per validation
        scripted = iter([5.0, *val_losses])
        monkeypatch.setattr(training, "evaluate_loss", lambda *args: next(scripted))
        total_steps = 2 * (len(val_losses) - 1)
        return train(small_corpus(), TrainConfig(total_steps=total_steps, validation_interval=2),
                     self.MODEL)

    def test_argmin_of_synthetic_curve(self, monkeypatch):
        result = self.train_on_scripted_curve(monkeypatch, [3.0, 2.0, 2.5])
        assert [(row[0], row[2]) for row in result.curve] == [(0, 3.0), (2, 2.0), (4, 2.5)]
        assert (result.best_step, result.best_val_loss) == (2, 2.0)

    def test_first_minimum_wins_ties(self, monkeypatch):
        result = self.train_on_scripted_curve(monkeypatch, [2.0, 2.0])
        assert (result.best_step, result.best_val_loss) == (0, 2.0)
        initial = init_params(self.MODEL, TrainConfig().seed)
        for name, tensor in result.params.items():
            np.testing.assert_array_equal(tensor.data, initial.tensors[name].data)


class TestTrainLoop:
    def test_loss_decreases_on_small_corpus(self, tmp_path):
        corpus = small_corpus(n_train=64, n_val=6, seed=1)
        model_config = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=32, n_heads=2,
                                   head_dim=16, ffn_dim=64)
        train_config = TrainConfig(peak_lr=3e-3, total_steps=60, token_budget=1024,
                                   validation_interval=30, seed=0)
        result = train(corpus, train_config, model_config, checkpoint_path=tmp_path / "m.pmrt")
        first_step, first_train, _ = result.curve[0]
        assert first_step == 0
        assert result.curve[-1][1] < first_train
        assert (tmp_path / "m.pmrt").exists()
        steps = [row[0] for row in result.curve]
        assert steps == sorted(steps)

    def test_initial_loss_close_to_log_vocab(self):
        corpus = small_corpus(n_train=12, n_val=6, seed=2)
        model_config = ModelConfig()
        train_config = TrainConfig(total_steps=1, validation_interval=1, seed=0)
        result = train(corpus, train_config, model_config)
        log_v = math.log(model_config.audio_vocab_ext)
        assert abs(result.curve[0][2] - log_v) / log_v <= 0.15

    def test_empty_split_rejected(self):
        corpus = small_corpus()
        corpus.val = []
        with pytest.raises(ValueError, match="split"):
            train(corpus, TrainConfig(total_steps=1), ModelConfig())


class TestBatchLoss:
    def test_matches_position_weighted_example_losses(self):
        # fused padded-batch pass vs independent per-example passes
        corpus = small_corpus()
        model_config = ModelConfig()
        examples = corpus_examples(corpus, model_config)[:3]
        params = init_params(model_config, seed=0)
        batches = make_batches(examples, 4096, seed=0, pad_id=SpecialTokens.for_vocab(64).pad)

        batch = batches[0]
        loss, count = whole_batch_loss(batch, params, model_config)
        total_nll = 0.0
        total_n = 0
        for ex in batch.examples:
            ce, n = _example_loss(ex, params, model_config, False)
            total_nll += ce.item() * n
            total_n += n
        assert count == total_n
        assert loss.item() == pytest.approx(total_nll / total_n, rel=1e-5)

    def test_prompt_masking_drops_prompt_positions(self):
        corpus = small_corpus()
        model_config = ModelConfig()
        examples = corpus_examples(corpus, model_config)[:1]
        params = init_params(model_config, seed=0)
        batch = make_batches(examples, 4096, seed=0, pad_id=SpecialTokens.for_vocab(64).pad)[0]
        _, n_all = whole_batch_loss(batch, params, model_config, mask_prompt=False)
        masked, n_masked = whole_batch_loss(batch, params, model_config, mask_prompt=True)
        assert n_all - n_masked == examples[0].prompt_len + 1
        expected, n_oracle = _example_loss(examples[0], params, model_config, True)
        assert n_oracle == n_masked
        assert masked.item() == pytest.approx(expected.item(), rel=1e-5)

    @pytest.mark.parametrize("mask_prompt", [False, True], ids=["prompt_scored", "prompt_masked"])
    def test_ragged_groups_match_the_example_oracle_in_float64(self, mask_prompt):
        # loss and every gradient of the grouped fused passes against the
        # position-weighted sum of unbatched, unpadded example losses
        model_config = ModelConfig(n_enc_layers=1, n_dec_layers=2, d_model=16, n_heads=2,
                                   head_dim=8, ffn_dim=32)
        examples = corpus_examples(small_corpus(), model_config)[:8]
        batch = make_batches(examples, 4096, seed=0, pad_id=SpecialTokens.for_vocab(64).pad)[0]
        assert len(batch.examples) == 8
        assert len(training._length_groups(batch.lengths.tolist())) >= 2
        assert len(set(len(ex.text) for ex in examples)) >= 2  # encoder pads too

        def losses(params):
            with Tape() as tape:
                loss, count = whole_batch_loss(batch, params, model_config, mask_prompt)
            tape.backward(loss)
            return loss.item(), count, {n: t.grad.copy() for n, t in params.items()}

        def oracle(params):
            with Tape() as tape:
                parts = [_example_loss(ex, params, model_config, mask_prompt)
                         for ex in batch.examples]
                total = sum(n for _, n in parts)
                loss = nm.scale(parts[0][0], parts[0][1] / total)
                for ce, n in parts[1:]:
                    loss = nm.add(loss, nm.scale(ce, n / total))
            tape.backward(loss)
            return loss.item(), total, {n: t.grad.copy() for n, t in params.items()}

        fused, count, grads = losses(init_params(model_config, seed=0, dtype=np.float64))
        want, want_count, want_grads = oracle(init_params(model_config, seed=0, dtype=np.float64))
        assert count == want_count
        assert abs(fused - want) <= 1e-10
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            assert np.abs(grad - want_grads[name]).max() <= 1e-10, name


SPLIT_MODEL = ModelConfig(n_enc_layers=1, n_dec_layers=2, d_model=16, n_heads=2, head_dim=8,
                          ffn_dim=32)


def in_worker(main_pid) -> bool:
    return os.getpid() != main_pid


def assert_gone(pid):
    """The process is neither running nor an unreaped zombie."""
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    assert multiprocessing.active_children() == []


class TestSplitSteps:
    """train()'s steps split a batch's length groups between the main process
    and a worker, and must leave batch_loss's loss and gradients bit for bit."""

    @pytest.mark.parametrize("split", ["balanced", "all_but_one"])
    @pytest.mark.parametrize("mask_prompt", [False, True], ids=["prompt_scored", "prompt_masked"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_split_gradients_equal_batch_loss_bitwise(self, monkeypatch, dtype, mask_prompt,
                                                      split):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        if split == "all_but_one":  # several worker groups, whose order in the sum matters
            monkeypatch.setattr(training, "_split",
                                lambda costs, worker: len(costs) - 1 if worker else 0)
        examples = corpus_examples(small_corpus(n_train=40), SPLIT_MODEL)
        batches = [b for b in make_batches(examples, 512, seed=0,
                                           pad_id=SpecialTokens.for_vocab(64).pad)
                   if len(training._length_groups(b.lengths.tolist())) >= 3]
        assert len(batches) >= 2
        params = init_params(SPLIT_MODEL, seed=0, dtype=dtype)
        with workers.forked_worker(params, SPLIT_MODEL) as worker:
            assert worker is not None
            for batch in batches:
                groups = training._length_groups(batch.lengths.tolist())
                shared = training._split([training._pass_cost(batch, rows) for rows in groups],
                                         worker)
                assert 0 < shared < len(groups)
                for _, t in params.items():
                    t.grad = None  # the reference tape starts from none, as each step does
                with Tape() as tape:
                    want, _ = whole_batch_loss(batch, params, SPLIT_MODEL, mask_prompt)
                tape.backward(want)
                want_grads = {n: t.grad.tobytes() for n, t in params.items()}
                for split_with in (None, worker):
                    value = training._step_gradients(batch, params, SPLIT_MODEL, mask_prompt,
                                                     split_with)
                    assert np.asarray(value, dtype).tobytes() == want.data.tobytes()
                    for name, t in params.items():
                        assert t.grad.tobytes() == want_grads[name], name
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("worker_on", [False, True], ids=["alone", "with_worker"])
    def test_each_step_starts_from_no_gradient(self, monkeypatch, worker_on):
        # no zeroing between steps: a step leaves exactly the gradients of a
        # fresh step on its batch, whatever the step before it left
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: worker_on)
        examples = corpus_examples(small_corpus(n_train=40), SPLIT_MODEL)
        first, second = [b for b in make_batches(examples, 512, seed=0,
                                                 pad_id=SpecialTokens.for_vocab(64).pad)
                         if len(training._length_groups(b.lengths.tolist())) >= 2][:2]
        params = init_params(SPLIT_MODEL, seed=0)
        with workers.forked_worker(params, SPLIT_MODEL) as worker:
            assert (worker is not None) == worker_on
            fresh = training._step_gradients(second, params, SPLIT_MODEL, False, worker)
            want = {n: t.grad.tobytes() for n, t in params.items()}
            training._step_gradients(first, params, SPLIT_MODEL, False, worker)
            value = training._step_gradients(second, params, SPLIT_MODEL, False, worker)
        assert value == fresh
        for name, t in params.items():
            assert t.grad.tobytes() == want[name], name

    @pytest.mark.parametrize("where", ["main", "worker"])
    def test_non_finite_loss_at_the_second_step(self, monkeypatch, where):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        monkeypatch.setattr(training, "_split",
                            lambda costs, worker: len(costs) - 1 if worker else 0)
        corpus = small_corpus(n_train=40)
        cfg = TrainConfig(total_steps=2, validation_interval=2, token_budget=512)
        batches = make_batches(corpus_examples(corpus, SPLIT_MODEL), cfg.token_budget, cfg.seed,
                               SpecialTokens.for_vocab(64).pad)
        second = batches[1]  # step 1's batch: the first epoch has more than one
        assert len(training._length_groups(second.lengths.tolist())) >= 2
        main_pid = os.getpid()
        fused = training._fused_loss

        def diverging(batch, *rest):
            loss, count = fused(batch, *rest)
            if (nm._active.stack and in_worker(main_pid) == (where == "worker")
                    and np.array_equal(batch.tokens, second.tokens)):
                loss = nm.scale(loss, math.nan)
            return loss, count

        monkeypatch.setattr(training, "_fused_loss", diverging)
        with pytest.raises(DivergenceError, match=r"^non-finite training loss at step 1$") as err:
            train(corpus, cfg, SPLIT_MODEL)
        assert [step for step, _, _ in err.value.result.curve] == [0]
        assert multiprocessing.active_children() == []

    def test_split_balances_cost_and_keeps_the_last_item(self):
        assert training._split([5.0, 3.0, 1.0, 1.0], worker=object()) == 1
        assert training._split([4.0, 4.0, 4.0, 4.0], worker=object()) == 2
        assert training._split([1.0, 1.0, 1.0, 9.0], worker=object()) == 3
        assert training._split([9.0], worker=object()) == 0
        assert training._split([5.0, 3.0, 1.0, 1.0], worker=None) == 0

    def test_split_evaluation_equals_the_serial_one(self, monkeypatch):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        examples = corpus_examples(small_corpus(n_train=400), SPLIT_MODEL)
        batches = make_batches(examples, training.EVAL_TOKEN_BUDGET, seed=0,
                               pad_id=SpecialTokens.for_vocab(64).pad)
        assert len(batches) >= 2
        params = init_params(SPLIT_MODEL, seed=0)
        serial = training.evaluate_loss(examples, params, SPLIT_MODEL, True)
        nll = count = 0
        for batch in batches:  # the per-batch sum evaluate_loss made before the split
            loss, n = whole_batch_loss(batch, params, SPLIT_MODEL, True)
            nll += loss.item() * n
            count += n
        assert serial == nll / count
        with workers.forked_worker(params, SPLIT_MODEL) as worker:
            assert training.evaluate_loss(examples, params, SPLIT_MODEL, True, worker) == serial

    @pytest.mark.parametrize("mask_prompt", [True, False], ids=["prompt_masked", "prompt_scored"])
    def test_recipe_is_identical_with_and_without_the_worker(self, recipe_run, mask_prompt):
        # the curve and the checkpoint of conftest.train_recipe
        assert recipe_run(mask_prompt, True) == recipe_run(mask_prompt, False)
        assert multiprocessing.active_children() == []


class TestWorker:
    def test_worker_needs_two_cpus_and_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert workers._worker_wanted(True)
        assert not workers._worker_wanted(False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not workers._worker_wanted(True)

    def test_blas_runs_on_one_thread_and_is_restored(self, monkeypatch):
        threads = workers._openblas_threads()
        if threads is None:
            pytest.skip("numpy does not run on OpenBLAS here")
        get, _ = threads
        before = get()
        seen = []
        clip = training.clip_gradients

        def recording(*args):
            seen.append(get())
            return clip(*args)

        monkeypatch.setattr(training, "clip_gradients", recording)
        train(small_corpus(), TrainConfig(total_steps=2, validation_interval=2), SPLIT_MODEL)
        assert seen == [1, 1]
        assert get() == before

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_mapped_file_under_a_non_utf8_path(self, tmp_path):
        # a file system path is bytes: numpy, or a venv, may sit under one
        # that is not UTF-8, and the OpenBLAS lookup reads every mapped path
        found = workers._openblas_threads() is not None
        directory = os.path.join(os.fsencode(tmp_path), b"\xff-dir")
        os.mkdir(directory)
        path = os.path.join(directory, b"mapped")
        with open(path, "wb") as fh:
            fh.write(bytes(mmap.PAGESIZE))
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ):
            with open("/proc/self/maps", "rb") as maps:
                assert b"/\xff-dir/mapped" in maps.read()
            assert (workers._openblas_threads() is not None) == found
            result = train(small_corpus(), TrainConfig(total_steps=1, validation_interval=1),
                           SPLIT_MODEL)
        assert [step for step, _, _ in result.curve] == [0, 1]

    def test_worker_exception_is_raised_again_in_the_main_process(self, monkeypatch, tmp_path):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        main_pid = os.getpid()
        pid_file = tmp_path / "worker.pid"
        fused = training._fused_loss

        def failing(*args):
            if in_worker(main_pid):
                pid_file.write_text(str(os.getpid()))
                raise ValueError("token id outside [0, 69) in the worker")
            return fused(*args)

        monkeypatch.setattr(training, "_fused_loss", failing)
        with pytest.raises(ValueError, match=r"^token id outside \[0, 69\) in the worker$"):
            train(small_corpus(), TrainConfig(total_steps=2, validation_interval=2), SPLIT_MODEL)
        assert_gone(int(pid_file.read_text()))

    def test_hung_worker_is_named_and_stopped(self, monkeypatch, tmp_path):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        monkeypatch.setattr(workers, "_WORKER_TIMEOUT_S", 0.5)
        main_pid = os.getpid()
        pid_file = tmp_path / "worker.pid"
        fused = training._fused_loss

        def hanging(*args):
            if in_worker(main_pid) and nm._active.stack:  # in a training step's share
                pid_file.write_text(str(os.getpid()))
                time.sleep(60)
            return fused(*args)

        monkeypatch.setattr(training, "_fused_loss", hanging)
        started = time.monotonic()
        with pytest.raises(workers.WorkerError, match="did not answer within 0.5 s") as err:
            train(small_corpus(), TrainConfig(total_steps=2, validation_interval=2), SPLIT_MODEL)
        assert time.monotonic() - started < 30
        assert err.value.result is not None and err.value.result.curve[0][0] == 0
        assert_gone(int(pid_file.read_text()))

    def test_worker_is_stopped_before_the_final_validation(self, monkeypatch, tmp_path):
        # so that its death overlaps the final validation instead of following it
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        main_pid = os.getpid()
        passes = tmp_path / "passes.txt"
        fused = training._fused_loss

        def recording(*args):  # each of the worker's passes: "tape" in a step, else "eval"
            if in_worker(main_pid):
                with open(passes, "a") as fh:
                    fh.write("tape\n" if nm._active.stack else "eval\n")
            return fused(*args)

        monkeypatch.setattr(training, "_fused_loss", recording)
        train(small_corpus(), TrainConfig(total_steps=2, validation_interval=1), SPLIT_MODEL)
        kinds = passes.read_text().split()
        assert kinds[0] == "eval" and "eval" in kinds[kinds.index("tape"):]  # step 1's validation
        assert kinds[-1] == "tape"
        assert multiprocessing.active_children() == []

    def test_worker_ignores_ctrl_c(self, monkeypatch):
        # a terminal's Ctrl-C reaches the whole process group; only the main
        # process may act on it
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        main_pid = os.getpid()
        fused = training._fused_loss

        def interrupted(*args):
            if in_worker(main_pid):
                os.kill(os.getpid(), signal.SIGINT)
            return fused(*args)

        corpus = small_corpus()
        cfg = TrainConfig(total_steps=2, validation_interval=2)
        want = train(corpus, cfg, SPLIT_MODEL).curve
        monkeypatch.setattr(training, "_fused_loss", interrupted)
        assert train(corpus, cfg, SPLIT_MODEL).curve == want
        assert multiprocessing.active_children() == []
