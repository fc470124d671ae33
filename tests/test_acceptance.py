"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The heavyweight criterion (the trained-configuration analysis) trains the
reference model once in a module fixture and reuses it; everything else runs
in seconds. Run with `pytest tests/test_acceptance.py -v` (the project's
tee-sys capture setting lets the PASS lines through).
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import finite_diff_grad, max_rel_err, pearson_direct, wilson_direct
from pmrope import numerics as nm
from pmrope.checkpoint import checkpoint_bytes, load_checkpoint
from pmrope.cli import evaluate_model, main
from pmrope.decoding import SamplerConfig
from pmrope.duration import estimate_from_rate, estimate_from_reference, target_token_count
from pmrope.metrics import bootstrap_ci, error_rate, pearson_r, wilson_interval
from pmrope.model import ModelConfig, decoder_forward, encode, init_params
from pmrope.numerics import Tape, Tensor
from pmrope.positional import RopeParams, rope_table, rotate_heads
from pmrope.synthcorpus import CorpusConfig, generate_corpus, save_corpus
from pmrope.training import TrainConfig, clip_gradients, lr_at, train

# Reference run: spec-default corpus and model; training recipe calibrated to
# generalize inside the 20k-step / 60-min ceiling (~10 min on two CPU cores).
REFERENCE_CORPUS = CorpusConfig(seed=0)
REFERENCE_MODEL = ModelConfig()
REFERENCE_TRAIN = TrainConfig(peak_lr=1.5e-3, weight_decay=0.02, total_steps=4000,
                              validation_interval=250, token_budget=2048, seed=0,
                              mask_prompt=True)


def report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} [{description}]: {status}{suffix}")
    assert passed, f"criterion {criterion}: {description}{suffix}"


# -- 1: gradient correctness ------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.time()
    config = ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=16, n_heads=2, head_dim=8,
                         ffn_dim=32, text_vocab=8, audio_vocab=16)
    params = init_params(config, seed=1, dtype=np.float64)
    text = [1, 5, 2]
    stream = [16, 3, 1, 20, 7, 2, 11, 4]
    targets = list(stream[1:]) + [17]

    def loss_fn():
        logits = decoder_forward(stream, encode(text, params, config), len(stream), params,
                                 config)
        return nm.cross_entropy(logits, targets).item()

    with Tape() as tape:
        logits = decoder_forward(stream, encode(text, params, config), len(stream), params,
                                 config)
        loss = nm.cross_entropy(logits, targets)
    tape.backward(loss)

    worst = 0.0
    worst_name = None
    for name, tensor in params.items():
        err = max_rel_err(tensor.grad, finite_diff_grad(tensor=tensor, loss_fn=loss_fn, eps=1e-5))
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.time() - started
    report(1, "gradients match central differences",
           worst <= 1e-4 and elapsed <= 120.0,
           f"worst rel err {worst:.2e} in {worst_name}, {elapsed:.0f}s")


# -- 2: relative-progress invariance -----------------------------------------


def test_criterion_2_shift_invariance():
    params = RopeParams(head_dim=16)

    def rotate(v, positions):
        """v rotated at each position as the model rotates it: one rope_table,
        then rotate_heads over a single head."""
        table = rope_table(positions, params, 1, v.dtype)
        return rotate_heads(Tensor(np.stack([v] * len(positions))), table).data

    results = {}
    for dtype, tolerance in ((np.float32, 1e-6), (np.float64, 1e-10)):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            q = rng.normal(0, 1, 16).astype(dtype)
            k = rng.normal(0, 1, 16).astype(dtype)
            a, b = rng.uniform(0, 2000, 2)
            c = rng.uniform(-1000, 1000)
            # attention logits q.k / sqrt(head_dim), taken in float64
            qa, qc = rotate(q, [a, a + c]).astype(np.float64)
            kb, kc = rotate(k, [b, b + c]).astype(np.float64)
            worst = max(worst, abs(qa @ kb / math.sqrt(16) - qc @ kc / math.sqrt(16)))
        results[np.dtype(dtype).name] = (worst, tolerance)
    passed = all(worst <= tol for worst, tol in results.values())
    detail = ", ".join(f"{name} {worst:.2e} vs {tol:.0e}" for name, (worst, tol) in results.items())
    report(2, "scores depend only on progress differences", passed, detail)


# -- 3: zero-rotation equivalence ---------------------------------------------


def test_criterion_3_zero_rotation_equivalence():
    config = ModelConfig(n_enc_layers=1, n_dec_layers=2, d_model=32, n_heads=2, head_dim=16,
                         ffn_dim=64, text_vocab=8, audio_vocab=16)
    identical = 0
    for seed in range(10):
        params = init_params(config, seed=seed)
        rng = np.random.default_rng(seed)
        text = rng.integers(0, config.text_vocab, 5)
        stream = rng.integers(0, config.audio_vocab_ext, 11)
        enc = encode(text, params, config)
        off = decoder_forward(stream, enc, 11, params, replace(config, pm_rope_enabled=False))
        on_zero = decoder_forward(stream, enc, 11, params,
                                  replace(config, pm_rope_enabled=True, progress_scale=0.0))
        identical += bool(np.all(off.data == on_zero.data))
    report(3, "disabled rotation == zero progress IDs, bitwise", identical == 10,
           f"{identical}/10 models identical")


# -- 4: schedule endpoints and clipping ---------------------------------------


def test_criterion_4_schedule_and_clipping():
    cfg = TrainConfig(peak_lr=1e-4, total_steps=10000, warmup_fraction=0.02)
    warmup_end = math.ceil(0.02 * 10000)
    endpoints_ok = (lr_at(0, cfg) == 0.0 and lr_at(warmup_end, cfg) == 1e-4
                    and lr_at(10000, cfg) == 0.0)

    from pmrope.model import ModelParams
    from pmrope.numerics import Tensor

    rng = np.random.default_rng(4)
    clip_ok = True
    for trial in range(50):
        tensors = {}
        for i in range(3):
            t = Tensor(np.zeros((4, 5)), requires_grad=True)
            t.grad[...] = rng.normal(0, 10 ** (trial % 5 - 2), (4, 5))
            tensors[f"p{i}.w"] = t
        params = ModelParams(tensors, None)
        clip_gradients(params, 1.0)
        norm = math.sqrt(sum(float((t.grad ** 2).sum()) for t in tensors.values()))
        clip_ok = clip_ok and norm <= 1.0 + 1e-9
    report(4, "lr endpoints exact and post-clip norm <= 1",
           endpoints_ok and clip_ok)


# -- 5: metric oracle equivalence ----------------------------------------------


def _levenshtein_all_hyps(ref, hyps_by_len):
    """Array DP: distances from one reference to every hypothesis at once."""
    out = {}
    for hyp_len, hyps in hyps_by_len.items():
        n_hyps = hyps.shape[0]
        row = np.broadcast_to(np.arange(hyp_len + 1), (n_hyps, hyp_len + 1)).copy()
        for i, r in enumerate(ref, start=1):
            prev = row
            row = np.empty_like(prev)
            row[:, 0] = i
            for j in range(1, hyp_len + 1):
                sub = prev[:, j - 1] + (hyps[:, j - 1] != r)
                row[:, j] = np.minimum(np.minimum(prev[:, j] + 1, row[:, j - 1] + 1), sub)
            del prev
        out[hyp_len] = row[:, -1]
    return out


def test_criterion_5_metric_oracles():
    # error_rate vs an independent array-DP oracle on every pair up to length 6
    alphabet = (0, 1, 2)
    refs = [seq for n in range(1, 7) for seq in itertools.product(alphabet, repeat=n)]
    hyps_by_len = {0: np.empty((1, 0), dtype=np.int64)}
    for n in range(1, 7):
        hyps_by_len[n] = np.array(list(itertools.product(alphabet, repeat=n)), dtype=np.int64)
    mismatches = 0
    checked = 0
    for ref in refs:
        expected = _levenshtein_all_hyps(ref, hyps_by_len)
        for hyp_len, hyps in hyps_by_len.items():
            distances = expected[hyp_len]
            for row in range(hyps.shape[0]):
                got = error_rate(ref, hyps[row])
                checked += 1
                if got != distances[row] / len(ref):
                    mismatches += 1
    er_ok = mismatches == 0

    # pearson_r and wilson_interval against direct-formula oracles
    rng = np.random.default_rng(5)
    pearson_ok = True
    for _ in range(25):
        x = list(rng.normal(0, 3, 12))
        y = list(rng.normal(0, 3, 12))
        pearson_ok = pearson_ok and abs(pearson_r(x, y) - pearson_direct(x, y)) <= 1e-9
    from statistics import NormalDist
    z95 = NormalDist().inv_cdf(0.975)
    wilson_ok = True
    for successes, n in ((0, 50), (25, 50), (39, 50), (40, 50), (50, 50), (7, 13)):
        got = wilson_interval(successes, n)
        lo, hi = wilson_direct(successes, n, z95)
        wilson_ok = wilson_ok and abs(got.ci_low - max(0.0, lo)) <= 1e-9 \
            and abs(got.ci_high - min(1.0, hi)) <= 1e-9

    # bootstrap determinism and the reported half-width at 39 or 40 of 50
    sample = list(rng.uniform(0, 1, 60))
    b1, b2 = bootstrap_ci(sample, seed=42), bootstrap_ci(sample, seed=42)
    bootstrap_ok = (b1.ci_low, b1.ci_high) == (b2.ci_low, b2.ci_high)
    half_widths = [(wilson_interval(s, 50).ci_high - wilson_interval(s, 50).ci_low) / 2
                   for s in (39, 40)]
    width_ok = all(abs(hw - 0.11) <= 0.02 for hw in half_widths)

    report(5, "metric implementations match independent oracles",
           er_ok and pearson_ok and wilson_ok and bootstrap_ok and width_ok,
           f"{checked} edit-distance pairs, {mismatches} mismatches; "
           f"half-widths {half_widths[0]:.3f}/{half_widths[1]:.3f}")


# -- 6: duration estimator ------------------------------------------------------


def test_criterion_6_duration_estimator():
    ratio = estimate_from_reference(5.0, 50, 100)
    ratio_ok = ratio.seconds == 10.0 and target_token_count(ratio) == 500
    rates_ok = (estimate_from_rate(1, "EN").seconds == 0.085
                and estimate_from_rate(1, "JA").seconds == 0.10
                and estimate_from_rate(1, "ZH").seconds == 0.27)
    report(6, "duration estimates and 50 Hz token conversion exact",
           ratio_ok and rates_ok)


# -- 7: trained configuration analysis (the heavyweight criterion) ---------------


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Train the reference model once; reused by criterion 7 and 9."""
    started = time.time()
    corpus = generate_corpus(REFERENCE_CORPUS, REFERENCE_MODEL.audio_vocab)
    checkpoint_path = tmp_path_factory.mktemp("reference") / "reference.pmrt"
    result = train(corpus, REFERENCE_TRAIN, REFERENCE_MODEL,
                   checkpoint_path=checkpoint_path, verbose=True)
    elapsed = time.time() - started
    return {
        "corpus": corpus,
        "result": result,
        "checkpoint_path": checkpoint_path,
        "train_seconds": elapsed,
    }


def test_criterion_7_configuration_analysis(reference_run, tmp_path):
    corpus = reference_run["corpus"]
    params = reference_run["result"].params
    elapsed = reference_run["train_seconds"]
    budget_ok = REFERENCE_TRAIN.total_steps <= 20000 and elapsed <= 3600.0

    outcomes = {}
    for pm_enabled in (True, False):
        config = replace(REFERENCE_MODEL, pm_rope_enabled=pm_enabled)
        reports, detail = evaluate_model(params, config, corpus.spec, corpus.test,
                                         SamplerConfig(seed=0))
        outcomes[pm_enabled] = {
            "error_rate": reports[0].mean,
            "style_similarity": reports[1].mean,
            "duration_accuracy": reports[2].mean,
            "pearson_r": pearson_r(detail["target_seconds"], detail["generated_seconds"]),
        }
    on, off = outcomes[True], outcomes[False]

    a_ok = on["duration_accuracy"] >= 0.90 and on["pearson_r"] >= 0.90
    b_ok = (off["duration_accuracy"] <= on["duration_accuracy"] - 0.25
            and off["error_rate"] >= 2.0 * on["error_rate"])
    c_ok = on["style_similarity"] >= 0.95

    # the same comparison through the paired CLI command on the saved checkpoint
    import json

    corpus_dir = tmp_path / "corpus"
    save_corpus(corpus, corpus_dir)
    ablate_path = tmp_path / "ablate.json"
    code = main(["ablate", "--checkpoint", str(reference_run["checkpoint_path"]),
                 "--corpus", str(corpus_dir), "--report", str(ablate_path), "--limit", "25"])
    ablate = json.loads(ablate_path.read_text())
    ablate_ok = (code == 0 and set(ablate["configurations"]) == {"pm_on", "pm_off"}
                 and ablate["deltas"]["duration_accuracy"] > 0.25)

    detail_text = (
        f"train {elapsed:.0f}s/{REFERENCE_TRAIN.total_steps} steps; "
        f"on: DA={on['duration_accuracy']:.3f} r={on['pearson_r']:.3f} "
        f"ER={on['error_rate']:.3f} SIM={on['style_similarity']:.3f}; "
        f"off: DA={off['duration_accuracy']:.3f} ER={off['error_rate']:.3f}; "
        f"cli ablate DA delta {ablate['deltas']['duration_accuracy']:+.3f}"
    )
    report(7, "duration control works and collapses without rotation",
           budget_ok and a_ok and b_ok and c_ok and ablate_ok, detail_text)


# -- 8: memorization sanity -------------------------------------------------------


def test_criterion_8_memorization():
    corpus = generate_corpus(CorpusConfig(n_train=3, n_val=3, n_test=3, seed=8), 64)
    single = corpus.train[0]
    corpus.train = [single]
    corpus.val = [single]
    model_config = ModelConfig()
    train_config = TrainConfig(peak_lr=1e-3, total_steps=2000, validation_interval=100,
                               token_budget=4096, seed=0)
    result = train(corpus, train_config, model_config)
    log_v = math.log(model_config.audio_vocab_ext)
    initial = result.curve[0][2]
    floor = min(row[1] for row in result.curve[1:])
    init_ok = abs(initial - log_v) / log_v <= 0.15
    memo_ok = floor < 0.1
    report(8, "single utterance memorized below 0.1 nats",
           init_ok and memo_ok,
           f"initial {initial:.3f} vs ln V' {log_v:.3f}; best train loss {floor:.4f}")


# -- 9: round-trip formats ----------------------------------------------------------


def test_criterion_9_round_trips(reference_run, tmp_path):
    checkpoint_path = reference_run["checkpoint_path"]
    original = checkpoint_path.read_bytes()
    resaved = checkpoint_bytes(load_checkpoint(checkpoint_path))
    checkpoint_ok = resaved == original

    corpus_config = CorpusConfig(n_train=60, n_val=12, n_test=12, seed=9)
    save_corpus(generate_corpus(corpus_config, 64), tmp_path / "a")
    save_corpus(generate_corpus(corpus_config, 64), tmp_path / "b")
    corpus_ok = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json")
    )

    import json

    corpus_dir = tmp_path / "c"
    save_corpus(reference_run["corpus"], corpus_dir)
    report_path = tmp_path / "report.json"
    code = main(["eval", "--checkpoint", str(checkpoint_path), "--corpus", str(corpus_dir),
                 "--report", str(report_path), "--limit", "5"])
    reports = json.loads(report_path.read_text())
    schema = {"metric", "mean", "ci_low", "ci_high", "n", "method", "resamples", "seed"}
    eval_ok = (code == 0 and isinstance(reports, list) and len(reports) == 3
               and all(set(r) == schema for r in reports))

    report(9, "checkpoint, corpus, and report formats round-trip",
           checkpoint_ok and corpus_ok and eval_ok)