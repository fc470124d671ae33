"""The benchmark's own tests: metric names, correctness checks, smoke runs.

    python3 -m pytest benchmark/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from pmbench import checks, spec
from pmbench.tracing import Tracer
from pmbench.workloads import (
    WORKLOADS,
    AblateWorkload,
    GenerateWorkload,
    TrainWorkload,
    select_stratified,
)
import pmrope
from pmrope import decoding, model, numerics, training
from pmrope.model import ModelConfig
from pmrope.synthcorpus import CorpusConfig, generate_corpus

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY_MODEL = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=16, n_heads=2, head_dim=8,
                         ffn_dim=32)


class TinyTrain(TrainWorkload):
    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, steps=2, model_config=TINY_MODEL,
                         corpus_config=CorpusConfig(n_train=30, n_val=6, n_test=6, seed=seed))


def run_workload(workload):
    workload.setup()
    workload.prepare()
    outputs = [workload.run_pass(), workload.run_pass()]
    return workload.summarize([1.0, 1.0], outputs)


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_matches_emitted_names_and_units():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                            "per_layer"}
    assert [w["name"] for w in on_disk["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        assert run.parse_args(["--workload", name, "--seed", "0", "--seconds", "1"]).workload == name


def test_benchmark_json_respects_its_limits():
    doc = spec.benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 1 <= len(doc["per_layer"]) <= 128 and 1 <= len(doc["end_to_end"]) <= 16
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) and max(bounds.values()) <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert len(json.dumps(doc)) <= 64 * 1024


# -- correctness checks trip on bad results -------------------------------------


def good_generation(**overrides):
    args = dict(tokens=[1, 2, 3], stop_reason="eos", generated_len=3, target_len=3,
                oracle_len=3, audio_vocab=64, cap_factor=1.2)
    args.update(overrides)
    return checks.check_generation(**args)


def test_generation_check_passes_a_good_result():
    assert good_generation() == []
    assert good_generation(tokens=[0] * 4, generated_len=4, stop_reason="length_cap") == []


@pytest.mark.parametrize("overrides", [
    dict(tokens=[1, 64, 3]),
    dict(tokens=[-1, 2, 3]),
    dict(stop_reason="timeout"),
    dict(tokens=[1] * 5, generated_len=5),
    dict(generated_len=2),
    dict(oracle_len=4),
])
def test_generation_check_trips(overrides):
    assert good_generation(**overrides)


def test_repeat_check_trips_on_different_tokens():
    assert checks.check_repeat([1, 2], [1, 2]) == []
    assert checks.check_repeat([1, 2], [1, 3])


def test_train_curve_check():
    assert checks.check_train_curve([(0, 4.0, 4.1), (2, 3.0, 3.5)]) == []
    assert checks.check_train_curve([(0, 4.0, 4.1), (2, math.nan, 3.5)])
    assert checks.check_train_curve([(0, 4.0, 4.1), (2, 3.0, math.inf)])
    assert checks.check_train_curve([(0, 4.0, 4.1), (2, 3.0, 4.1)])
    assert checks.check_train_curve([(0, 4.0, 4.1)])


def ablate_report(on, off):
    return {"configurations": {"pm_on": {"duration_accuracy": {"mean": on}},
                               "pm_off": {"duration_accuracy": {"mean": off}}}}


def test_ablate_report_check():
    assert checks.check_ablate_report(ablate_report(0.97, 0.03)) == []
    assert checks.check_ablate_report({"configurations": {"pm_on": {}}})
    assert checks.check_ablate_report(ablate_report(0.5, 0.6))
    assert checks.check_ablate_report(ablate_report(0.85, 0.03))
    assert checks.check_ablate_report(ablate_report(0.95, 0.8))


def test_summaries_count_failures(tmp_path):
    workload = TinyTrain(3, tmp_path)
    workload.setup()
    workload.prepare()
    good = workload.run_pass()
    bad = [good[0], (good[1][0], good[1][1], good[0][2] + 1.0)]
    summary = workload.summarize([1.0, 1.0], [good, bad])
    assert (summary["attempted"], summary["failed"]) == (2, 1)


# -- smoke runs -----------------------------------------------------------------


def test_train_smoke(tmp_path):
    summary = run_workload(TinyTrain(5, tmp_path))
    assert (summary["attempted"], summary["failed"]) == (2, 0)
    assert summary["throughput_per_s"] > 0 and summary["ms_per_token_p50"] > 0
    assert math.isfinite(summary["detail"]["train_val_loss"][0])


def test_generate_smoke(tmp_path):
    workload = GenerateWorkload(7, tmp_path, run.REFERENCE, n_requests=3)
    summary = run_workload(workload)
    assert (summary["attempted"], summary["failed"]) == (7, 0)
    assert summary["work"]["requests_per_pass"] == 3


def test_ablate_smoke(tmp_path):
    workload = AblateWorkload(7, tmp_path, run.REFERENCE, text_fraction=0.05)
    summary = run_workload(workload)
    assert (summary["attempted"], summary["failed"]) == (2, 0)
    assert summary["detail"]["ablate_duration_accuracy_delta"][0] >= 0.25


def test_stratified_selection_keeps_the_length_mix():
    test = generate_corpus(CorpusConfig(seed=0)).test
    picks = [select_stratified(test, 0.5, seed) for seed in (1, 2)]
    assert [u.text for u in picks[0]] != [u.text for u in picks[1]]
    assert sorted(u.duration_tokens for u in picks[0]) == sorted(
        u.duration_tokens for u in picks[1])


# -- tracing ----------------------------------------------------------------------


def test_tracer_restores_every_binding_and_changes_no_result(tmp_path):
    before = {(m.__name__, k): v for m in (numerics, model, training, decoding)
              for k, v in vars(m).items()}
    tape_methods = dict(vars(numerics.Tape))
    plain = TinyTrain(9, tmp_path)
    plain.setup()
    plain.prepare()
    expected = plain.run_pass()

    tracer = Tracer()
    installed = tracer.install(pmrope)
    try:
        assert training.decoder_batch is not before[("pmrope.training", "decoder_batch")]
        with tracer.span("bench", "pass"):
            traced = plain.run_pass()
    finally:
        installed.uninstall()
    assert traced == expected
    after = {(m.__name__, k): v for m in (numerics, model, training, decoding)
             for k, v in vars(m).items()}
    assert after == before and dict(vars(numerics.Tape)) == tape_methods

    values = spec.per_layer_metrics(tracer, Tracer(), 1, 0.0)
    assert set(values) == {name for name, _, _ in spec.PER_LAYER}
    assert all(math.isfinite(v) for v in values.values())
    assert values["work.steps_per_pass"] == 2
    assert values["training.fused_passes_per_batch"] >= 1
    assert values["numerics.backward.matmul_ms_per_step"] > 0
    assert values["trace.train_step_coverage"] >= 0.9


def test_result_lines_carry_exactly_the_declared_metrics(tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "train", TinyTrain)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        args = run.parse_args(["--workload", "train", "--seed", "2", "--seconds", "0.01",
                               "--trace", str(trace)])
        detail, result = run.run(args, pmrope)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {row[0]: row[1] for row in declared}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        assert detail["provenance"]["seed"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "generate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
