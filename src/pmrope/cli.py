"""Command-line workflow: corpus generation, training, duration estimation,
generation, evaluation, and the paired on/off cross-attention comparison.

Exit codes: 0 success, 2 usage/config error, 3 runtime/divergence error.
All randomness flows from explicit seeds; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .checkpoint import CheckpointError, load_checkpoint
from .decoding import SamplerConfig, generate, generate_batch
from .duration import (
    DEFAULT_FRAME_RATE,
    estimate_from_rate,
    estimate_from_reference,
    target_token_count,
)
from .metrics import (
    DEFAULT_DA_MARGIN,
    bootstrap_ci,
    duration_accuracy,
    error_rate,
    style_similarity,
    wilson_interval,
)
from .model import ModelConfig, SpecialTokens, config_from_record
from .synthcorpus import (
    CorpusConfig,
    SymbolSpec,
    Utterance,
    build_symbol_spec,
    check_model_fits,
    generate_corpus,
    load_corpus,
    load_manifest,
    prompt_for,
    save_corpus,
)
from .training import DivergenceError, TrainConfig, train, write_loss_csv
from .workers import WorkerError, forked_worker

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Raised for malformed run-configuration files."""


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    corpus: CorpusConfig


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "corpus": CorpusConfig}


def load_run_config(path=None) -> RunConfig:
    """Parse a JSON run configuration; unknown keys and mistyped values are rejected."""
    if path is None:
        raw = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except UnicodeDecodeError as err:
            raise ConfigError(f"config {path} is not UTF-8: {err}") from None
        # bad syntax, an int of more digits than Python parses, or deep nesting
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config key {key!r}")
    built = {}
    for section, cls in _SECTIONS.items():
        try:
            built[section] = config_from_record(cls, raw.get(section, {}))
        except ValueError as err:
            raise ConfigError(f"config section {section!r}: {err}") from None
    return RunConfig(**built)


def _parse_tokens(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Evaluation core (shared by eval and ablate)
# ---------------------------------------------------------------------------


def evaluate_model(params, config, spec: SymbolSpec, utterances, sampler: SamplerConfig):
    """Generate at oracle target lengths and score the result set.

    The utterances decode as one batch with one sampler: prompt_for renders
    every prompt of a corpus at one length, and utterance i samples with seed
    sampler.seed + i, so two configurations evaluated on the same split are
    exactly paired. Returns (reports, per-utterance detail dict).
    """
    alphabets = spec.style_alphabets()
    prompts = [prompt_for(utt, spec) for utt in utterances]
    results = generate_batch(
        [(utt.text, prompt, utt.duration_tokens) for utt, prompt in zip(utterances, prompts)],
        params, config, sampler)
    error_rates = []
    similarities = []
    target_seconds = []
    generated_seconds = []
    for utt, prompt, result in zip(utterances, prompts, results):
        error_rates.append(error_rate(utt.audio, result.tokens))
        if result.tokens:
            similarities.append(style_similarity(prompt, result.tokens, alphabets))
        else:
            similarities.append(0.0)
        target_seconds.append(utt.duration_tokens / DEFAULT_FRAME_RATE)
        generated_seconds.append(result.generated_len / DEFAULT_FRAME_RATE)
    da = duration_accuracy(generated_seconds, target_seconds, DEFAULT_DA_MARGIN)
    successes = round(da * len(utterances))
    reports = [
        bootstrap_ci(error_rates, metric="error_rate"),
        bootstrap_ci(similarities, metric="style_similarity"),
        wilson_interval(successes, len(utterances), metric="duration_accuracy"),
    ]
    detail = {
        "error_rates": error_rates,
        "similarities": similarities,
        "target_seconds": target_seconds,
        "generated_seconds": generated_seconds,
    }
    return reports, detail


def _ablate_arm(spec: SymbolSpec, utterances, sampler: SamplerConfig, params, config) -> dict:
    """One ablate arm's reports by metric, in the argument order a worker calls."""
    reports, _ = evaluate_model(params, config, spec, utterances, sampler)
    return {r.metric: asdict(r) for r in reports}


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_scatter(path, detail) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("utterance,target_duration,generated_duration\n")
        pairs = zip(detail["target_seconds"], detail["generated_seconds"])
        for idx, (target, generated) in enumerate(pairs):
            fh.write(f"{idx},{target:.6f},{generated:.6f}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_corpus(args) -> int:
    cfg = load_run_config(args.config)
    corpus = generate_corpus(cfg.corpus, cfg.model.audio_vocab)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus.train)}/{len(corpus.val)}/{len(corpus.test)} utterances to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    corpus = load_corpus(args.corpus)
    loss_csv = args.loss_csv if args.loss_csv else str(args.out) + ".losses.csv"
    try:
        result = train(corpus, cfg.train, cfg.model, checkpoint_path=args.out,
                       verbose=not args.quiet)
    except (DivergenceError, WorkerError) as err:
        retained = ""
        if err.result is not None:  # else it broke off before the first checkpoint
            write_loss_csv(loss_csv, err.result.curve)
            retained = f" (best checkpoint retained at {args.out})"
        print(f"error: {err}{retained}", file=sys.stderr)
        return EXIT_RUNTIME
    write_loss_csv(loss_csv, result.curve)
    print(f"best validation loss {result.best_val_loss:.4f} at step {result.best_step}; "
          f"checkpoint at {args.out}, losses at {loss_csv}")
    return EXIT_OK


def _load_model(checkpoint_path, pm_rope: str | None):
    params = load_checkpoint(checkpoint_path)
    config = params.config
    if pm_rope is not None:
        config = replace(config, pm_rope_enabled=(pm_rope == "on"))
    return params, config


def _prompt_from_args(args, config, text) -> list:
    if args.prompt_tokens is not None:
        prompt = _parse_tokens(args.prompt_tokens)
        silence = SpecialTokens.for_vocab(config.audio_vocab).silence
        for token in prompt:
            if not (0 <= token < config.audio_vocab or token == silence):
                raise ConfigError(f"prompt token {token} outside [0, {config.audio_vocab}) "
                                  f"and not the silence id {silence}")
        return prompt
    if args.style is not None:
        if args.corpus is None:
            raise ConfigError("--style needs --corpus to rebuild the symbol table")
        corpus_config, audio_vocab = load_manifest(args.corpus)
        check_model_fits(corpus_config, audio_vocab, config)
        spec = build_symbol_spec(corpus_config, audio_vocab)
        probe = Utterance(text=list(text), style_id=args.style, stretch=1, audio=[],
                          duration_tokens=1)
        return prompt_for(probe, spec)
    return []


def cmd_generate(args) -> int:
    params, config = _load_model(args.checkpoint, args.pm_rope)
    text = _parse_tokens(args.text)
    prompt = _prompt_from_args(args, config, text)
    if args.target_seconds is not None:
        target_len = target_token_count(args.target_seconds, args.frame_rate)
    else:
        target_len = args.oracle_length
    sampler = SamplerConfig(top_k=args.top_k, top_p=args.top_p,
                            temperature=args.temperature, seed=args.seed)
    result = generate(text, prompt, target_len, params, config, sampler)
    payload = json.dumps(asdict(result), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return EXIT_OK


def _test_slice(corpus, limit, config):
    """The test split, or its first limit utterances, for a model of config."""
    check_model_fits(corpus.config, corpus.audio_vocab, config)
    if limit is None:
        return corpus.test
    if limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {limit}")
    return corpus.test[:limit]


def cmd_eval(args) -> int:
    params, config = _load_model(args.checkpoint, args.pm_rope)
    corpus = load_corpus(args.corpus)
    utterances = _test_slice(corpus, args.limit, config)
    sampler = SamplerConfig(seed=args.seed)
    reports, detail = evaluate_model(params, config, corpus.spec, utterances, sampler)
    _write_json(args.report, [asdict(r) for r in reports])
    scatter = args.scatter if args.scatter else str(args.report) + ".scatter.csv"
    _write_scatter(scatter, detail)
    for report in reports:
        print(f"{report.metric}: {report.mean:.4f} [{report.ci_low:.4f}, {report.ci_high:.4f}] "
              f"(n={report.n}, {report.method})")
    return EXIT_OK


def cmd_ablate(args) -> int:
    params, config = _load_model(args.checkpoint, None)
    if not config.pm_rope_enabled:
        raise ConfigError("ablate needs a checkpoint trained with progress rotation enabled")
    corpus = load_corpus(args.corpus)
    utterances = _test_slice(corpus, args.limit, config)
    arm = (corpus.spec, utterances, SamplerConfig(seed=args.seed))
    off = replace(config, pm_rope_enabled=False)
    # the rotation-off arm decodes in a worker forked on its config, where one pays
    with forked_worker(params, off) as worker:
        if worker is not None:
            worker.submit(_ablate_arm, *arm)
        blocks = {"pm_on": _ablate_arm(*arm, params, config)}
        blocks["pm_off"] = worker.receive() if worker else _ablate_arm(*arm, params, off)
    deltas = {
        metric: blocks["pm_on"][metric]["mean"] - blocks["pm_off"][metric]["mean"]
        for metric in ("error_rate", "style_similarity", "duration_accuracy")
    }
    _write_json(args.report, {"configurations": blocks, "deltas": deltas})
    for label, block in blocks.items():
        print(f"{label}: " + "  ".join(f"{m}={block[m]['mean']:.4f}" for m in block))
    print("deltas: " + "  ".join(f"{m}={v:+.4f}" for m, v in deltas.items()))
    return EXIT_OK


def cmd_duration(args) -> int:
    if args.lang is not None:
        estimate = estimate_from_rate(args.tgt_units, args.lang)
    else:
        if args.ref_seconds is None or args.ref_units is None:
            raise ConfigError("need either --lang or both --ref-seconds and --ref-units")
        estimate = estimate_from_reference(args.ref_seconds, args.ref_units, args.tgt_units)
    tokens = target_token_count(estimate, args.frame_rate)
    print(f"{estimate.seconds:.3f} s, {tokens} tokens")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmrope",
        description="Duration-controlled toy codec language model workflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate the synthetic corpus splits")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--out", required=True, help="output directory for JSONL splits")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train", help="train a model on a corpus directory")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample audio tokens for a text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True, help="comma-separated symbol ids")
    p.add_argument("--corpus", default=None, help="corpus dir (for --style prompts)")
    p.add_argument("--style", type=int, default=None, help="render a prompt in this style")
    p.add_argument("--prompt-tokens", default=None, help="explicit prompt token ids")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-seconds", type=float, default=None)
    group.add_argument("--oracle-length", type=int, default=None)
    p.add_argument("--frame-rate", type=int, default=DEFAULT_FRAME_RATE)
    p.add_argument("--top-k", type=int, default=SamplerConfig.top_k)
    p.add_argument("--top-p", type=float, default=SamplerConfig.top_p)
    p.add_argument("--temperature", type=float, default=SamplerConfig.temperature)
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)
    p.add_argument("--pm-rope", choices=("on", "off"), default=None)
    p.add_argument("--out", default=None, help="write result JSON here instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True, help="output JSON report path")
    p.add_argument("--scatter", default=None, help="output scatter CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--pm-rope", choices=("on", "off"), default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="paired eval with rotation on then off")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("duration", help="estimate a target duration")
    p.add_argument("--ref-seconds", type=float, default=None)
    p.add_argument("--ref-units", type=int, default=None)
    p.add_argument("--tgt-units", type=int, required=True)
    p.add_argument("--lang", default=None)
    p.add_argument("--frame-rate", type=int, default=DEFAULT_FRAME_RATE)
    p.set_defaults(func=cmd_duration)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, WorkerError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
