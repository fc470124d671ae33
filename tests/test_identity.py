"""Output identity: the sha256 of what the program writes, against values
recorded in identity.json.

The artefacts are the 40-step cut of the acceptance training recipe (its
checkpoint, prompt masked and prompt scored), generate tokens on the
reference checkpoint at the default sampler settings and at one other
setting, the eval --limit 60 report and scatter, and the ablate --limit 60
report. A change that alters any of them on purpose edits identity.json and
says why; the diff of that file is then the record of what moved.

The bits hold for one numpy build, BLAS and CPU only, so identity.json also
records that machine. On another machine each artefact is computed twice,
the two runs must agree, and the test then xfails naming the field that
differs. Run this file as a script to print a fresh record for this machine.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pmrope import checkpoint, cli, decoding, synthcorpus
from pmrope.decoding import SamplerConfig
from pmrope.model import ModelConfig
from pmrope.training import TrainConfig, train

RECORD_PATH = Path(__file__).with_name("identity.json")
REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference" / "reference.pmrt"
N_GENERATE = 20


def machine() -> dict:
    """The fields the recorded bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _train_40_steps(tmp: Path, mask_prompt: bool) -> str:
    # the acceptance suite's reference recipe, cut to 40 steps
    corpus = synthcorpus.generate_corpus(synthcorpus.CorpusConfig(seed=0),
                                         ModelConfig().audio_vocab)
    cfg = TrainConfig(peak_lr=1.5e-3, weight_decay=0.02, total_steps=40,
                      validation_interval=10, token_budget=2048, seed=0,
                      mask_prompt=mask_prompt)
    path = tmp / "model.pmrt"
    train(corpus, cfg, ModelConfig(), checkpoint_path=path)
    return sha256(path.read_bytes())


def _generate(sampler: SamplerConfig) -> str:
    params = checkpoint.load_checkpoint(REFERENCE)
    corpus = synthcorpus.generate_corpus(synthcorpus.CorpusConfig(seed=0),
                                         params.config.audio_vocab)
    results = [decoding.generate(u.text, synthcorpus.prompt_for(u, corpus.spec),
                                 u.duration_tokens, params, params.config,
                                 replace(sampler, seed=sampler.seed + i))
               for i, u in enumerate(corpus.test[:N_GENERATE])]
    return sha256(json.dumps([(r.tokens, r.stop_reason) for r in results]).encode())


def _cli(tmp: Path, command: str) -> dict:
    """sha256 of each file one pmrope command writes on the seed-0 corpus."""
    corpus = tmp / "corpus"
    out = tmp / command
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["corpus", "--out", str(corpus)]) == 0
        args = [command, "--checkpoint", str(REFERENCE), "--corpus", str(corpus),
                "--report", str(out / "report.json"), "--limit", "60"]
        if command == "eval":
            args += ["--scatter", str(out / "scatter.csv")]
        out.mkdir()
        assert cli.main(args) == 0
    return {path.name: sha256(path.read_bytes()) for path in sorted(out.iterdir())}


ARTEFACTS = {
    "train_40_steps_prompt_masked": lambda tmp: _train_40_steps(tmp, True),
    "train_40_steps_prompt_scored": lambda tmp: _train_40_steps(tmp, False),
    "generate_default_sampler": lambda tmp: _generate(SamplerConfig(seed=1000)),
    "generate_top_k_5_top_p_0.7_temperature_1.3": lambda tmp: _generate(
        SamplerConfig(top_k=5, top_p=0.7, temperature=1.3, seed=2000)),
    "eval_limit_60": lambda tmp: _cli(tmp, "eval"),
    "ablate_limit_60": lambda tmp: _cli(tmp, "ablate"),
}


def compare(record: dict, name: str, compute, tmp: Path) -> None:
    """compute's value against record's; on another machine, against a rerun."""
    (tmp / "first").mkdir(parents=True)
    value = compute(tmp / "first")
    here = machine()
    differs = [field for field in record["machine"] if record["machine"][field] != here[field]]
    if differs:
        (tmp / "second").mkdir(parents=True)
        assert compute(tmp / "second") == value, f"{name}: two runs disagree"
        field = differs[0]
        pytest.xfail(f"recorded on another machine: {field} is {here[field]!r} here, "
                     f"{record['machine'][field]!r} in {RECORD_PATH.name}; "
                     "checked run-to-run determinism only")
    assert value == record["sha256"][name]


@pytest.mark.parametrize("name", sorted(ARTEFACTS))
def test_output_is_the_recorded_one(name, tmp_path):
    record = json.loads(RECORD_PATH.read_text(encoding="utf-8"))
    assert sorted(record["sha256"]) == sorted(ARTEFACTS)
    compare(record, name, ARTEFACTS[name], tmp_path)


def test_another_machine_xfails_naming_the_field_and_still_checks_determinism(tmp_path):
    here = machine()
    record = {"machine": dict(here, cpu=f"not {here['cpu']}"), "sha256": {"x": "recorded"}}
    with pytest.raises(pytest.xfail.Exception, match="cpu is"):
        compare(record, "x", lambda tmp: "computed", tmp_path / "stable")
    draws = iter(["a", "b"])
    with pytest.raises(AssertionError, match="x: two runs disagree"):
        compare(record, "x", lambda tmp: next(draws), tmp_path / "unstable")
    with pytest.raises(AssertionError):
        compare({"machine": here, "sha256": {"x": "recorded"}}, "x", lambda tmp: "computed",
                tmp_path / "same")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = {}
        for name, compute in ARTEFACTS.items():
            (Path(tmp) / name).mkdir()
            values[name] = compute(Path(tmp) / name)
    json.dump({"machine": machine(), "sha256": values}, sys.stdout, indent=2)
    sys.stdout.write("\n")
