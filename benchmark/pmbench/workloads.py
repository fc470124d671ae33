"""The three workloads. Each drives pmrope through its public functions.

A workload has a ``setup`` (timed, repeated for the set-up metric), a
``run_pass`` that does one fixed, seed-determined unit of work (timed) and a
``summarize`` that turns the passes into metrics and counts failed
operations. Every pass of a run repeats the same work, so passes after the
first also check that the program is deterministic.

All calls into the package go through module attributes
(``decoding.generate``, not a local alias) so that the span recorder sees
them in traced runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

from pmrope import checkpoint, cli, decoding, duration, model, synthcorpus, training

from . import checks

#: the reference recipe of the acceptance suite, minus its step count
RECIPE = dict(peak_lr=1.5e-3, weight_decay=0.02, token_budget=2048, seed=0, mask_prompt=True)
#: corpus whose motifs the frozen checkpoint learned
REFERENCE_CORPUS_SEED = 0

TRAIN_STEPS = 40
SHORT_MAX = 32
LONG_MIN = 64


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class TrainWorkload:
    """train() on the default-size corpus of the workload seed."""

    name = "train"
    needs_reference = False
    #: the first pass grows the heap to its working size; later ones reuse it
    warmup_passes = 1

    def __init__(self, seed: int, workdir: Path, steps: int = TRAIN_STEPS,
                 corpus_config: synthcorpus.CorpusConfig | None = None,
                 model_config: model.ModelConfig | None = None):
        self.seed = seed
        self.workdir = workdir
        self.model_config = model_config or model.ModelConfig()
        self.corpus_config = corpus_config or synthcorpus.CorpusConfig(seed=seed)
        self.train_config = training.TrainConfig(total_steps=steps, validation_interval=steps,
                                                 **RECIPE)
        self.corpus = None
        self.tokens_per_pass = 0

    def setup(self) -> None:
        self.corpus = synthcorpus.generate_corpus(self.corpus_config,
                                                  self.model_config.audio_vocab)

    def prepare(self) -> None:
        """Count the decoder tokens one pass processes (bookkeeping, untimed).

        Mirrors train(): the steps' batches, the initial loss on the first
        200 training examples and on the validation split, and the final
        validation.
        """
        cfg = self.train_config
        specials = model.SpecialTokens.for_vocab(self.model_config.audio_vocab)
        train_ex = [training.build_example(u, self.corpus.spec, specials) for u in self.corpus.train]
        val_ex = [training.build_example(u, self.corpus.spec, specials) for u in self.corpus.val]

        def tokens(examples):
            return sum(len(ex.stream) - 1 for ex in examples)

        step_tokens, step, epoch = 0, 0, 0
        while step < cfg.total_steps:
            for batch in training.make_batches(train_ex, cfg.token_budget, cfg.seed + epoch,
                                               specials.pad):
                if step >= cfg.total_steps:
                    break
                step_tokens += tokens(batch.examples)
                step += 1
            epoch += 1
        self.tokens_per_pass = step_tokens + tokens(train_ex[:200]) + 2 * tokens(val_ex)

    def run_pass(self):
        result = training.train(self.corpus, self.train_config, self.model_config,
                                checkpoint_path=self.workdir / "train.pmrt")
        return result.curve

    def summarize(self, pass_seconds: list, outputs: list) -> dict:
        failed = 0
        for curve in outputs:
            problems = checks.check_train_curve(curve)
            if curve != outputs[0]:
                problems.append("loss curve differs from the first pass")
            failed += bool(problems)
        per_pass = [s / self.tokens_per_pass * 1000.0 for s in pass_seconds]
        return {
            "attempted": len(outputs),
            "failed": failed,
            "throughput_per_s": self.tokens_per_pass / _median(pass_seconds),
            "ms_per_token_p50": _median(per_pass),
            "detail": {
                "train_tokens_per_s": (self.tokens_per_pass / _median(pass_seconds), "tokens/s"),
                "train_val_loss": (outputs[0][-1][2], "nats"),
            },
            "work": {"steps_per_pass": self.train_config.total_steps,
                     "decoder_tokens_per_pass": self.tokens_per_pass},
        }


class _ReferenceModelWorkload:
    """Shared set-up of the workloads that run the frozen checkpoint."""

    needs_reference = True
    warmup_passes = 0

    def __init__(self, seed: int, workdir: Path, checkpoint_path: Path):
        self.seed = seed
        self.workdir = workdir
        self.checkpoint_path = checkpoint_path
        self.corpus = None

    def _reference_corpus(self, audio_vocab: int):
        return synthcorpus.generate_corpus(
            synthcorpus.CorpusConfig(seed=REFERENCE_CORPUS_SEED), audio_vocab)

    def prepare(self) -> None:
        pass


class GenerateWorkload(_ReferenceModelWorkload):
    """One closed-loop client: target from oracle seconds, then generate.

    A pass is the whole test split in a seeded order, each request with its
    own seeded sampler, so every seed sees the same mix of target lengths.
    """

    name = "generate"

    def __init__(self, seed: int, workdir: Path, checkpoint_path: Path,
                 n_requests: int | None = None):
        super().__init__(seed, workdir, checkpoint_path)
        self.n_requests = n_requests
        self.params = None
        self.requests = []

    def setup(self) -> None:
        self.params = checkpoint.load_checkpoint(self.checkpoint_path)
        config = self.params.config
        self.corpus = self._reference_corpus(config.audio_vocab)
        test = self.corpus.test
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(test))[: self.n_requests]
        sampler_seeds = rng.integers(0, 2**31 - 1, size=len(order))
        self.requests = [
            (test[int(i)].text, synthcorpus.prompt_for(test[int(i)], self.corpus.spec),
             test[int(i)].duration_tokens, int(s))
            for i, s in zip(order, sampler_seeds)
        ]

    def request(self, text, prompt, oracle_tokens, sampler_seed):
        config = self.params.config
        target = duration.target_token_count(oracle_tokens / duration.DEFAULT_FRAME_RATE)
        result = decoding.generate(text, prompt, target, self.params, config,
                                   decoding.SamplerConfig(seed=sampler_seed))
        return target, result

    def run_pass(self):
        clock = time.perf_counter
        out = []
        for text, prompt, oracle_tokens, sampler_seed in self.requests:
            started = clock()
            target, result = self.request(text, prompt, oracle_tokens, sampler_seed)
            out.append((clock() - started, target, result))
        return out

    def summarize(self, pass_seconds: list, outputs: list) -> dict:
        config = self.params.config
        failed = attempted = 0
        first = outputs[0]
        for outcome in outputs:
            for (_, target, result), (_, _, reference), (_, _, oracle, _) in zip(
                    outcome, first, self.requests):
                problems = checks.check_generation(
                    result.tokens, result.stop_reason, result.generated_len, target, oracle,
                    config.audio_vocab, decoding.LENGTH_CAP_FACTOR)
                problems += checks.check_repeat(reference.tokens, result.tokens)
                attempted += 1
                failed += bool(problems)
        # one request again, outside any pass, with its seed
        text, prompt, oracle, sampler_seed = self.requests[0]
        _, again = self.request(text, prompt, oracle, sampler_seed)
        attempted += 1
        failed += bool(checks.check_repeat(first[0][2].tokens, again.tokens))

        per_token, short, long_ = [], [], []
        for outcome in outputs:
            for seconds, target, result in outcome:
                ms = seconds * 1000.0 / (result.generated_len + 1)
                per_token.append(ms)
                if target <= SHORT_MAX:
                    short.append(ms)
                elif target >= LONG_MIN:
                    long_.append(ms)
        steps = sum(r.generated_len + 1 for outcome in outputs for _, _, r in outcome)
        busy = sum(s for outcome in outputs for s, _, _ in outcome)

        def p50(values):
            return _median(values) if values else float("nan")

        return {
            "attempted": attempted,
            "failed": failed,
            "throughput_per_s": steps / busy,
            "ms_per_token_p50": _median(per_token),
            "detail": {
                "gen_ms_per_token_p50": (_median(per_token), "ms"),
                "gen_ms_per_token_p95": (_percentile(per_token, 95), "ms"),
                "gen_ms_per_token_short_p50": (p50(short), "ms"),
                "gen_ms_per_token_long_p50": (p50(long_), "ms"),
                "gen_requests": (len(per_token), "count"),
                "gen_eos_stop_fraction": (
                    sum(r.stop_reason == "eos" for _, _, r in first) / len(first), "fraction"),
            },
            "work": {"requests_per_pass": len(first),
                     "tokens_emitted_per_pass": sum(r.generated_len for _, _, r in first)},
        }


class AblateWorkload(_ReferenceModelWorkload):
    """In-process ``pmrope ablate`` on a seeded, length-stratified test slice.

    The slice takes half of the test texts of every text length (rounded up),
    each with all its stretch variants, so every seed gets the same multiset
    of target lengths.
    """

    name = "ablate"

    def __init__(self, seed: int, workdir: Path, checkpoint_path: Path,
                 text_fraction: float = 0.5):
        super().__init__(seed, workdir, checkpoint_path)
        self.text_fraction = text_fraction
        self.corpus_dir = workdir / "ablate-corpus"
        self.report_path = workdir / "ablate-report.json"
        self.utterances = []

    def setup(self) -> None:
        audio_vocab = model.ModelConfig().audio_vocab
        self.corpus = self._reference_corpus(audio_vocab)
        self.utterances = select_stratified(self.corpus.test, self.text_fraction, self.seed)
        subset = synthcorpus.Corpus(config=self.corpus.config, audio_vocab=audio_vocab,
                                    spec=self.corpus.spec, test=self.utterances)
        synthcorpus.save_corpus(subset, self.corpus_dir)

    def run_pass(self):
        argv = ["ablate", "--checkpoint", str(self.checkpoint_path), "--corpus",
                str(self.corpus_dir), "--report", str(self.report_path),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, self.report_path.read_text(encoding="utf-8")

    def summarize(self, pass_seconds: list, outputs: list) -> dict:
        failed = 0
        for code, text in outputs:
            problems = [f"exit code {code}"] if code != 0 else []
            if not problems:
                problems += checks.check_ablate_report(json.loads(text))
            if text != outputs[0][1]:
                problems.append("ablate report differs from the first pass")
            failed += bool(problems)
        report = json.loads(outputs[0][1])
        arms = report.get("configurations", {})

        def mean(arm, metric):
            return arms.get(arm, {}).get(metric, {}).get("mean", float("nan"))

        rows = 2 * len(self.utterances)
        requested = 2 * sum(u.duration_tokens + 1 for u in self.utterances)
        utt_per_s = rows / _median(pass_seconds)
        return {
            "attempted": len(outputs),
            "failed": failed,
            "throughput_per_s": utt_per_s,
            "ms_per_token_p50": _median([s * 1000.0 / requested for s in pass_seconds]),
            "detail": {
                "ablate_utt_per_s": (utt_per_s, "utterances/s"),
                "ablate_duration_accuracy_on": (mean("pm_on", "duration_accuracy"), "fraction"),
                "ablate_error_rate_on": (mean("pm_on", "error_rate"), "fraction"),
                "ablate_duration_accuracy_delta": (
                    mean("pm_on", "duration_accuracy") - mean("pm_off", "duration_accuracy"),
                    "fraction"),
                "ablate_duration_accuracy_off": (mean("pm_off", "duration_accuracy"), "fraction"),
                "ablate_error_rate_off": (mean("pm_off", "error_rate"), "fraction"),
            },
            "work": {"utterances_per_pass": rows,
                     "requested_tokens_per_pass": requested},
        }


def select_stratified(test, text_fraction: float, seed: int) -> list:
    """Seeded choice of whole texts (all stretch variants), per text length."""
    by_text = {}
    for utt in test:
        by_text.setdefault(tuple(utt.text), []).append(utt)
    n_variants = max(len(v) for v in by_text.values())
    complete = [variants for variants in by_text.values() if len(variants) == n_variants]
    by_length = {}
    for variants in complete:
        by_length.setdefault(len(variants[0].text), []).append(variants)
    rng = np.random.default_rng(seed)
    chosen = []
    for length in sorted(by_length):
        group = by_length[length]
        take = max(1, int(np.ceil(text_fraction * len(group))))
        for idx in sorted(rng.choice(len(group), size=take, replace=False)):
            chosen.extend(group[int(idx)])
    return chosen


WORKLOADS = {w.name: w for w in (TrainWorkload, GenerateWorkload, AblateWorkload)}
