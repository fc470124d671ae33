"""Metric names, units and directions, and the per-layer metric derivation.

BENCHMARK.json at the repository root lists the same names; a test keeps
the two in step.
"""

from __future__ import annotations

from .tracing import BACKWARD_OPS, BENCH_LAYER, LAYERS

#: seconds of measured work in one run
RUN_SECONDS = 40

# (name, unit, better, bound): reported by every workload with tracing off
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("ms_per_token_p50", "ms", "lower", 0.25),
]


def _per_layer() -> list:
    rows = [("numerics.backward_ms_per_step", "ms", "lower")]
    rows += [(f"numerics.backward.{op}_ms_per_step", "ms", "lower") for op in BACKWARD_OPS]
    rows += [
        ("numerics.tape_records_per_step", "count", "lower"),
        ("numerics.matmul_calls", "count", "lower"),
        ("numerics.matmul_ms", "ms", "lower"),
        ("positional.rotate_heads_calls", "count", "lower"),
        ("positional.rotate_heads_ms", "ms", "lower"),
        ("positional.rotate_heads_calls_on", "count", "lower"),
        ("positional.rotate_heads_ms_on", "ms", "lower"),
        ("positional.rotate_heads_calls_off", "count", "lower"),
        ("positional.rotate_heads_ms_off", "ms", "lower"),
        ("model.encode_batch_calls", "count", "lower"),
        ("model.encode_batch_ms", "ms", "lower"),
        ("model.decoder_batch_calls", "count", "lower"),
        ("model.decoder_batch_ms", "ms", "lower"),
        ("model.decoder_positions", "count", "lower"),
        ("model.attention_ms", "ms", "lower"),
        ("training.forward_ms_per_step", "ms", "lower"),
        ("training.clip_ms_per_step", "ms", "lower"),
        ("training.adamw_ms_per_step", "ms", "lower"),
        ("training.evaluate_loss_ms", "ms", "lower"),
        ("training.make_batches_ms", "ms", "lower"),
        ("training.fused_passes_per_batch", "count", "lower"),
        ("training.pad_fraction", "fraction", "lower"),
        ("checkpoint.load_ms", "ms", "lower"),
        ("checkpoint.save_ms", "ms", "lower"),
        ("checkpoint.save_calls", "count", "lower"),
        ("synthcorpus.generate_corpus_ms", "ms", "lower"),
        ("synthcorpus.load_corpus_ms", "ms", "lower"),
        ("duration.target_token_count_ms", "ms", "lower"),
        ("decoding.forward_calls_per_token", "count", "lower"),
        ("decoding.positions_per_token", "count", "lower"),
        ("decoding.useful_position_ratio", "fraction", "higher"),
        ("decoding.encode_ms_per_request", "ms", "lower"),
        ("decoding.forward_ms_per_token", "ms", "lower"),
        ("decoding.sample_ms_per_token", "ms", "lower"),
        ("decoding.rows_per_forward", "count", "higher"),
        ("decoding.eos_stop_fraction", "fraction", "higher"),
        ("metrics.error_rate_ms", "ms", "lower"),
        ("metrics.style_similarity_ms", "ms", "lower"),
        ("metrics.bootstrap_ci_ms", "ms", "lower"),
        ("metrics.wilson_interval_ms", "ms", "lower"),
        ("cli.evaluate_model_ms_on", "ms", "lower"),
        ("cli.evaluate_model_ms_off", "ms", "lower"),
        ("cli.report_write_ms", "ms", "lower"),
    ]
    rows += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS + (BENCH_LAYER,)]
    rows += [
        ("trace.overhead_fraction", "fraction", "lower"),
        ("trace.train_step_coverage", "fraction", "higher"),
        ("work.steps_per_pass", "count", "higher"),
        ("work.tokens_emitted_per_pass", "count", "higher"),
        ("work.decoder_positions_per_pass", "count", "lower"),
    ]
    return rows


PER_LAYER = _per_layer()


WORKLOAD_WHY = {
    "train": "train() on the reference recipe: tape backward, batching, AdamW and checkpoint "
             "saves do the work while decoding and metrics stay idle",
    "generate": "one closed-loop client, one request at a time, 12-96 token targets: per-token "
                "decode latency, where a KV cache shows and batching cannot",
    "ablate": "in-process pmrope ablate, rotation on then off, over a test slice: offline "
              "throughput over many rows, the metrics layer and the paper's on/off gap",
}


def benchmark_json() -> dict:
    """The BENCHMARK.json document these definitions describe."""
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(passes: "Tracer", setup: "Tracer", n_passes: int,
                      overhead_fraction: float) -> dict:
    """Per-layer numbers from the traced passes and the traced set-ups.

    Times and counts are per pass unless the name says per step, per token
    or per request; load/generate/save times are per call.
    """
    ms = 1000.0
    t, n, c = passes.total_s, passes.calls, passes.counter
    per_pass = 1.0 / n_passes
    steps = passes.calls("numerics", "backward")
    decode_steps = c("decode_steps")
    requests = c("requests")

    def per_call(layer, name):
        calls = setup.calls(layer, name) + n(layer, name)
        return _ratio((setup.total_s(layer, name) + t(layer, name)) * ms, calls)

    out = {"numerics.backward_ms_per_step": _ratio(t("numerics", "backward") * ms, steps)}
    for op in BACKWARD_OPS:
        out[f"numerics.backward.{op}_ms_per_step"] = _ratio(
            t("numerics", f"backward.{op}") * ms, steps)
    out.update({
        "numerics.tape_records_per_step": _ratio(c("tape_records"), steps),
        "numerics.matmul_calls": n("numerics", "matmul") * per_pass,
        "numerics.matmul_ms": t("numerics", "matmul") * ms * per_pass,
        "positional.rotate_heads_calls": n("positional", "rotate_heads") * per_pass,
        "positional.rotate_heads_ms": t("positional", "rotate_heads") * ms * per_pass,
    })
    for arm in ("on", "off"):
        out[f"positional.rotate_heads_calls_{arm}"] = (
            n("positional", "rotate_heads", arm=arm) * per_pass)
        out[f"positional.rotate_heads_ms_{arm}"] = (
            t("positional", "rotate_heads", arm=arm) * ms * per_pass)
    decoder_calls = n("model", "decoder_batch")
    batch_losses = n("training", "batch_loss")
    train_positions = c("decoder_positions", phase="step") + c("decoder_positions", phase="eval")
    train_pads = c("pad_positions", phase="step") + c("pad_positions", phase="eval")
    decode_positions = c("decoder_positions", phase="decode")
    decode_forwards = n("model", "decoder_batch", phase="decode")
    out.update({
        "model.encode_batch_calls": n("model", "encode_batch") * per_pass,
        "model.encode_batch_ms": t("model", "encode_batch") * ms * per_pass,
        "model.decoder_batch_calls": decoder_calls * per_pass,
        "model.decoder_batch_ms": t("model", "decoder_batch") * ms * per_pass,
        "model.decoder_positions": c("decoder_positions") * per_pass,
        "model.attention_ms": t("model", "attention") * ms * per_pass,
        "training.forward_ms_per_step": _ratio(
            t("training", "batch_loss", phase="step") * ms, steps),
        "training.clip_ms_per_step": _ratio(t("training", "clip_gradients") * ms, steps),
        "training.adamw_ms_per_step": _ratio(t("training", "adamw_step") * ms, steps),
        "training.evaluate_loss_ms": t("training", "evaluate_loss") * ms * per_pass,
        "training.make_batches_ms": t("training", "make_batches") * ms * per_pass,
        "training.fused_passes_per_batch": _ratio(
            n("model", "decoder_batch", parent="training.batch_loss"), batch_losses),
        "training.pad_fraction": _ratio(train_pads, train_positions),
        "checkpoint.load_ms": per_call("checkpoint", "load_checkpoint"),
        "checkpoint.save_ms": per_call("checkpoint", "save_checkpoint"),
        "checkpoint.save_calls": n("checkpoint", "save_checkpoint") * per_pass,
        "synthcorpus.generate_corpus_ms": per_call("synthcorpus", "generate_corpus"),
        "synthcorpus.load_corpus_ms": per_call("synthcorpus", "load_corpus"),
        "duration.target_token_count_ms": t("duration", "target_token_count") * ms * per_pass,
        "decoding.forward_calls_per_token": _ratio(
            n("model", "decoder_forward", phase="decode"), decode_steps),
        "decoding.positions_per_token": _ratio(decode_positions, decode_steps),
        "decoding.useful_position_ratio": _ratio(decode_steps, decode_positions),
        "decoding.encode_ms_per_request": _ratio(
            t("model", "encode", parent="decoding.generate") * ms, requests),
        "decoding.forward_ms_per_token": _ratio(
            t("model", "decoder_forward", phase="decode") * ms, decode_steps),
        "decoding.sample_ms_per_token": _ratio(
            t("decoding", "filter_and_sample") * ms, decode_steps),
        "decoding.rows_per_forward": _ratio(
            c("decoder_rows", phase="decode"), decode_forwards),
        "decoding.eos_stop_fraction": _ratio(c("eos_stops"), requests),
        "metrics.error_rate_ms": t("metrics", "error_rate") * ms * per_pass,
        "metrics.style_similarity_ms": t("metrics", "style_similarity") * ms * per_pass,
        "metrics.bootstrap_ci_ms": t("metrics", "bootstrap_ci") * ms * per_pass,
        "metrics.wilson_interval_ms": t("metrics", "wilson_interval") * ms * per_pass,
        "cli.evaluate_model_ms_on": t("cli", "evaluate_model", arm="on") * ms * per_pass,
        "cli.evaluate_model_ms_off": t("cli", "evaluate_model", arm="off") * ms * per_pass,
        "cli.report_write_ms": t("cli", "report_write") * ms * per_pass,
    })
    for layer, seconds in passes.self_times().items():
        out[f"{layer}.self_ms"] = seconds * ms * per_pass
    out.update({
        "trace.overhead_fraction": overhead_fraction,
        "trace.train_step_coverage": passes.train_step_coverage(),
        "work.steps_per_pass": steps * per_pass,
        "work.tokens_emitted_per_pass": c("tokens_emitted") * per_pass,
        "work.decoder_positions_per_pass": c("decoder_positions") * per_pass,
    })
    return out
