import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrope import cli, decoding, numerics, training, workers
from pmrope.checkpoint import (
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    params_from_bytes,
    save_checkpoint,
)
from pmrope.cli import _SECTIONS, ConfigError, build_parser, evaluate_model, load_run_config, main
from pmrope.decoding import MAX_TARGET_LEN, SamplerConfig
from pmrope.model import ModelConfig, SpecialTokens, init_params
from pmrope.synthcorpus import load_corpus
from pmrope.training import build_example

REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference" / "reference.pmrt"

SMALL_RUN = {
    "model": {"n_enc_layers": 1, "n_dec_layers": 1, "d_model": 16, "n_heads": 2,
              "head_dim": 8, "ffn_dim": 32},
    "corpus": {"n_train": 18, "n_val": 6, "n_test": 6, "seed": 3,
               "text_len_min": 2, "text_len_max": 4},
    "train": {"total_steps": 8, "validation_interval": 4, "peak_lr": 1e-3,
              "token_budget": 512, "seed": 0},
}

#: SMALL_RUN trained for longer, validating every other step: it saves a
#: checkpoint whenever validation improves, so often
KILL_RUN = dict(SMALL_RUN, train=dict(SMALL_RUN["train"], total_steps=120,
                                      validation_interval=2))
#: how long after its first save a `pmrope train` of KILL_RUN is killed, at most
KILL_WINDOW_S = 1.0


def session_processes(sid) -> list:
    """The pids of the processes of session sid, zombies left out."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                state, _, _, session = fh.read().rsplit(")", 1)[1].split()[:4]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


@pytest.fixture
def run_config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL_RUN))
    return str(path)


@pytest.fixture
def corpus_dir(tmp_path, run_config_path):
    out = tmp_path / "corpus"
    assert main(["corpus", "--config", run_config_path, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def shared_corpus_dir(tmp_path_factory):
    """A corpus the tests below only copy, never change."""
    root = tmp_path_factory.mktemp("shared")
    (root / "run.json").write_text(json.dumps(SMALL_RUN))
    assert main(["corpus", "--config", str(root / "run.json"), "--out", str(root / "corpus")]) == 0
    return root / "corpus"


@pytest.fixture
def checkpoint(tmp_path, run_config_path, corpus_dir):
    path = tmp_path / "model.pmrt"
    code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                 "--out", str(path), "--quiet"])
    assert code == 0
    return path


class TestRunConfig:
    def test_empty_config_is_fully_defaulted(self):
        cfg = load_run_config(None)
        assert cfg.model.d_model == 64
        assert cfg.train.peak_lr == 1e-4
        assert cfg.corpus.n_train == 4000

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert load_run_config(str(path)).train.total_steps == 20000

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError, match="modle"):
            load_run_config(str(path))

    def test_sampler_section_rejected(self, tmp_path, capsys):
        # no command that reads --config samples; generate takes flags
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"sampler": {"top_k": 30}}))
        assert main(["corpus", "--config", str(path), "--out", str(tmp_path / "c")]) == 2
        assert "unknown config key 'sampler'" in capsys.readouterr().err

    def test_unknown_section_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"peek_lr": 1}}))
        with pytest.raises(ConfigError, match="peek_lr"):
            load_run_config(str(path))

    @pytest.mark.parametrize("raw, key", [
        ({"model": {"d_model": "64"}}, "d_model"),
        ({"model": {"pm_rope_enabled": 1}}, "pm_rope_enabled"),
        ({"train": {"total_steps": True}}, "total_steps"),
        ({"corpus": {"stretch_factors": 3}}, "stretch_factors"),
        ({"corpus": {"stretch_factors": [1, 2.5]}}, "stretch_factors"),
    ])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, raw, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            load_run_config(str(path))
        assert main(["corpus", "--config", str(path), "--out", str(tmp_path / "c")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b'{"train": {"seed": 1}}\xff', b'\xfe{}',
                                     b'{"corpus": {"seed": "\xc3("}}'])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "run.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_run_config(path)
        assert main(["corpus", "--config", str(path), "--out", str(tmp_path / "c")]) == 2
        assert f"config {path}: not UTF-8" in capsys.readouterr().err

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"peak_lr": 1}, "corpus": {"stretch_factors": [2]}}))
        cfg = load_run_config(str(path))
        assert cfg.train.peak_lr == 1 and cfg.corpus.stretch_factors == (2,)
        assert isinstance(cfg.train.peak_lr, float)

    @pytest.mark.parametrize("section, key", [("model", "rope_base"), ("model", "progress_scale"),
                                              ("train", "peak_lr")])
    def test_int_past_the_float_range_exits_2(self, tmp_path, capsys, section, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: 10 ** 400}}))
        assert main(["corpus", "--config", str(path), "--out", str(tmp_path / "c")]) == 2
        assert f"config key {key!r} must be a float, got an int too large" in capsys.readouterr().err

    @pytest.mark.parametrize("where, text", [
        (where, text) for where in ("config", "corpus_line", "manifest", "checkpoint")
        for text in ("1" * 5000, "[" * 100000)
    ], ids=["digits", "nesting", "corpus_line_digits", "corpus_line_nesting", "manifest_digits",
            "manifest_nesting", "checkpoint_digits", "checkpoint_nesting"])
    def test_json_python_cannot_read_exits_2(self, tmp_path, capsys, shared_corpus_dir, where,
                                             text):
        # an int of more digits than Python parses, or nesting past its
        # recursion limit, named by file (and line), never a traceback
        checkpoint = tmp_path / "m.pmrt"
        blob = checkpoint_bytes(init_params(ModelConfig(**SMALL_RUN["model"]), seed=0))
        corpus = tmp_path / "corpus"
        shutil.copytree(shared_corpus_dir, corpus)
        argv = ["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                "--report", str(tmp_path / "report.json")]
        if where == "config":
            path = tmp_path / "run.json"
            path.write_text(text)
            argv = ["corpus", "--config", str(path), "--out", str(tmp_path / "c")]
            named = f"config {path}: not valid JSON"
        elif where == "corpus_line":
            path = corpus / "val.jsonl"
            lines = path.read_text().splitlines()
            lines[1] = text
            path.write_text("\n".join(lines) + "\n")
            named = f"{path}, line 2: not valid JSON"
        elif where == "manifest":
            path = corpus / "manifest.json"
            path.write_text(text)
            named = f"{path}: not valid JSON"
        else:  # the checkpoint's config record
            n = struct.unpack("<I", blob[8:12])[0]
            blob = blob[:8] + struct.pack("<I", len(text)) + text.encode() + blob[12 + n:]
            with pytest.raises(CheckpointError, match="bad config record: not valid JSON"):
                params_from_bytes(blob)
            argv = ["generate", "--checkpoint", str(checkpoint), "--text", "1",
                    "--oracle-length", "4"]
            named = f"checkpoint {checkpoint}: bad config record: not valid JSON"
        checkpoint.write_bytes(blob)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_config_loads_or_raises_config_error(self, draw):
        # a drawn config either loads, with every float field a float, or
        # raises ConfigError (exit 2); nothing else escapes load_run_config
        small = st.integers(-3, 4096)  # so no model dimension sizes a large array
        huge = st.integers(2 ** 1024, 10 ** 400) | st.integers(-(10 ** 400), -(2 ** 1024))
        nested = st.recursive(st.none() | st.booleans() | small | st.floats() | st.text(max_size=3),
                              lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                              max_leaves=6)
        # mostly values in range, so that a good share of the configs load
        typed = {"int": st.sampled_from([1, 2, 4, 8, 16, 64]) | small,
                 "float": st.floats(0, 1) | st.integers(0, 3) | huge | st.floats(),
                 "bool": st.booleans(), "tuple": st.lists(st.integers(-3, 8), max_size=3)}
        def names(known):  # known names, and now and then another
            chosen = draw.draw(st.lists(st.sampled_from(known), unique=True, max_size=3))
            return chosen + ([draw.draw(st.text(max_size=4))] if draw.draw(rarely) else [])

        rarely = st.integers(0, 9).map(lambda n: n == 0)
        raw = {}
        for section in names(list(_SECTIONS)):
            if section not in _SECTIONS or draw.draw(rarely):
                raw[section] = draw.draw(nested)
                continue
            kinds = {f.name: f.type for f in fields(_SECTIONS[section])}
            record = {}
            for key in names(list(kinds)):
                wrong = key not in kinds or draw.draw(rarely)
                value = nested if wrong else typed[kinds[key]]
                if section != "model" and kinds.get(key) == "int":
                    value = value | huge
                record[key] = draw.draw(value)
            raw[section] = record
        data = json.dumps(raw).encode("ascii")
        if draw.draw(rarely):  # one byte that is not UTF-8
            at = draw.draw(st.integers(0, len(data)))
            data = data[:at] + bytes([draw.draw(st.integers(0x80, 0xFF))]) + data[at:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_bytes(data)
            try:
                cfg = load_run_config(path)
            except ConfigError:
                return
        for section, cls in _SECTIONS.items():
            for f in fields(cls):
                if f.type == "float":
                    assert isinstance(getattr(getattr(cfg, section), f.name), float)


class TestCorpusCommand:
    def test_line_counts_match_config(self, corpus_dir):
        counts = {name: sum(1 for _ in open(corpus_dir / f"{name}.jsonl"))
                  for name in ("train", "val", "test")}
        assert counts == {"train": 18, "val": 6, "test": 6}

    def test_rerun_is_byte_identical(self, tmp_path, run_config_path, corpus_dir):
        again = tmp_path / "corpus2"
        assert main(["corpus", "--config", run_config_path, "--out", str(again)]) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (again / name).read_bytes() == (corpus_dir / name).read_bytes()

    def test_corrupt_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"n_trian": 5}}))
        code = main(["corpus", "--config", str(bad), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "n_trian" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoint_and_monotone_loss_csv(self, checkpoint):
        assert checkpoint.exists()
        csv_path = str(checkpoint) + ".losses.csv"
        with open(csv_path) as fh:
            header = fh.readline().strip()
            steps = [int(line.split(",")[0]) for line in fh]
        assert header == "step,train_loss,val_loss"
        assert steps == sorted(steps)
        assert steps[0] == 0

    def test_loss_csv_is_the_curve_to_six_places(self, tmp_path, run_config_path, corpus_dir,
                                                 monkeypatch):
        results = []

        def recording(*args, **kwargs):
            results.append(training.train(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "train", recording)
        csv_path = tmp_path / "losses.csv"
        assert main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "m.pmrt"), "--loss-csv", str(csv_path),
                     "--quiet"]) == 0
        (result,) = results
        rows = "".join(f"{step},{t:.6f},{v:.6f}\n" for step, t, v in result.curve)
        assert csv_path.read_bytes() == ("step,train_loss,val_loss\n" + rows).encode()

    def test_checkpoint_round_trips_byte_identically(self, checkpoint, tmp_path):
        from pmrope.checkpoint import load_checkpoint, save_checkpoint

        copy = tmp_path / "copy.pmrt"
        save_checkpoint(copy, load_checkpoint(checkpoint))
        assert copy.read_bytes() == checkpoint.read_bytes()

    @pytest.mark.parametrize("filename, edit, message", [
        ("manifest.json", lambda m: {"audio_vocab": m["audio_vocab"]}, "missing key 'config'"),
        ("manifest.json", lambda m: dict(m, audio_vocab=None), "'audio_vocab' must be an int"),
        ("val.jsonl", lambda r: {k: v for k, v in r.items() if k != "style_id"},
         "line 2: missing key 'style_id'"),
        ("val.jsonl", lambda r: dict(r, audio=None), "line 2: key 'audio' must be a list"),
        ("val.jsonl", lambda r: dict(r, text=[]), "line 2: key 'text' must be nonempty"),
        ("val.jsonl", lambda r: dict(r, text=[0, 16]),
         "line 2: key 'text' must be nonempty, with ids in [0, 16)"),
        ("val.jsonl", lambda r: dict(r, audio=r["audio"] + [200]),
         "line 2: key 'audio' must be ids in [0, 64) or the silence id 67"),
        ("val.jsonl", lambda r: dict(r, style_id=9), "line 2: key 'style_id' must be in [0, 4)"),
        ("val.jsonl", lambda r: dict(r, stretch=0), "line 2: key 'stretch' must be >= 1"),
        ("val.jsonl", lambda r: dict(r, duration_tokens=0),
         "line 2: key 'duration_tokens' must be >= 1"),
        ("val.jsonl", lambda r: dict(r, duration_tokens=len(r["audio"]) + 1),
         "line 2: key 'duration_tokens' must be the audio's length"),
    ], ids=["manifest_without_config", "null_audio_vocab", "record_without_style_id",
            "null_audio", "empty_text", "text_id_out_of_range", "audio_id_out_of_range",
            "style_id_out_of_range", "zero_stretch", "zero_duration_tokens",
            "duration_tokens_not_the_audio_length"])
    def test_malformed_corpus_exits_2(self, tmp_path, run_config_path, corpus_dir, capsys,
                                      filename, edit, message):
        path = corpus_dir / filename
        if filename == "manifest.json":
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        else:
            lines = path.read_text().splitlines()
            lines[1] = json.dumps(edit(json.loads(lines[1])))
            path.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "m.pmrt"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert filename in err and message in err

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["manifest.json", "train.jsonl", "val.jsonl", "test.jsonl"]),
           st.floats(0.0, 1.0, exclude_max=True), st.integers(0x80, 0xFF))
    def test_non_utf8_corpus_byte_is_named(self, shared_corpus_dir, filename, where, byte):
        # the saved files are ASCII, so any byte from 0x80 up breaks the UTF-8
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus"
            shutil.copytree(shared_corpus_dir, corpus)
            data = bytearray((corpus / filename).read_bytes())
            at = int(where * len(data))
            data[at] = byte
            (corpus / filename).write_bytes(bytes(data))
            with pytest.raises(ValueError) as err:
                load_corpus(corpus)
        message = str(err.value)
        assert filename in message and "not UTF-8" in message
        if filename.endswith(".jsonl"):
            line = data[:at].count(b"\n") + 1
            assert f"line {line}:" in message

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["train.jsonl", "val.jsonl", "test.jsonl"]), st.data())
    def test_bit_flip_never_loads_an_out_of_range_id(self, shared_corpus_dir, filename, draw):
        # a flipped record either fails to load, naming its file, or builds
        # training examples whose ids all lie inside the model's vocabularies;
        # the flips drawn hit the digits, where most of them still parse
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus"
            shutil.copytree(shared_corpus_dir, corpus)
            data = bytearray((corpus / filename).read_bytes())
            at = draw.draw(st.sampled_from([i for i, byte in enumerate(data)
                                            if chr(byte).isdigit()]))
            data[at] ^= 1 << draw.draw(st.integers(0, 7))
            (corpus / filename).write_bytes(bytes(data))
            try:
                loaded = load_corpus(corpus)
            except ValueError as err:
                assert filename in str(err)
                return
        config = ModelConfig(**SMALL_RUN["model"])
        specials = SpecialTokens.for_vocab(config.audio_vocab)
        for utt in loaded.train + loaded.val + loaded.test:
            example = build_example(utt, loaded.spec, specials)
            assert example.text.size and 0 <= example.text.min()
            assert example.text.max() < config.text_vocab
            assert 0 <= example.stream.min() and example.stream.max() < config.audio_vocab_ext
            assert utt.stretch >= 1 and utt.duration_tokens >= 1

    def test_non_utf8_corpus_exits_2(self, tmp_path, run_config_path, corpus_dir, capsys):
        path = corpus_dir / "val.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"text", b"t\xe9xt")
        path.write_bytes(b"\n".join(lines))
        code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "m.pmrt"), "--quiet"])
        assert code == 2
        assert "val.jsonl, line 3: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("section, values, field", [
        ("model", {"progress_scale": float("nan")}, "progress_scale"),
        ("model", {"progress_scale": float("inf")}, "progress_scale"),
        ("model", {"rope_base": float("inf")}, "rope_base"),
        ("model", {"rope_base": 1.0}, "rope_base"),
        ("model", {"d_model": 14, "head_dim": 7}, "head_dim"),
        ("train", {"peak_lr": float("nan")}, "peak_lr"),
        ("train", {"peak_lr": float("inf")}, "peak_lr"),
        ("train", {"peak_lr": -1.0}, "peak_lr"),
        ("train", {"weight_decay": float("nan")}, "weight_decay"),
        ("train", {"weight_decay": -0.1}, "weight_decay"),
        ("train", {"clip_norm": float("nan")}, "clip_norm"),
        ("train", {"clip_norm": float("inf")}, "clip_norm"),
    ])
    def test_bad_config_value_exits_2_before_training(self, tmp_path, corpus_dir, capsys,
                                                      section, values, field):
        raw = dict(SMALL_RUN, **{section: dict(SMALL_RUN[section], **values)})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "m.pmrt"
        code = main(["train", "--config", str(path), "--corpus", str(corpus_dir),
                     "--out", str(out), "--quiet"])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_killed_worker_exits_3_and_keeps_the_checkpoint(self, tmp_path, run_config_path,
                                                            corpus_dir, capsys, monkeypatch):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        monkeypatch.setattr(workers, "_WORKER_TIMEOUT_S", 60.0)  # the death must read as EOF
        main_pid = os.getpid()
        pid_file = tmp_path / "worker.pid"
        backward = numerics.Tape.backward
        calls = []

        def dying(tape, loss):
            if os.getpid() != main_pid:  # in the worker, whose steps run backward too
                calls.append(loss)
                if len(calls) == 3:
                    pid_file.write_text(str(os.getpid()))
                    os.kill(os.getpid(), signal.SIGKILL)
            return backward(tape, loss)

        monkeypatch.setattr(numerics.Tape, "backward", dying)
        out = tmp_path / "m.pmrt"
        code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                     "--out", str(out), "--quiet"])
        assert code == 3
        assert "exited with code -9 (best checkpoint retained at" in capsys.readouterr().err
        assert load_checkpoint(out).config == ModelConfig(**SMALL_RUN["model"])
        with open(str(out) + ".losses.csv") as fh:
            assert fh.readline().strip() == "step,train_loss,val_loss"
            assert fh.readline().startswith("0,")
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)
        assert multiprocessing.active_children() == []

    def test_worker_dead_before_the_first_checkpoint_claims_none(
            self, tmp_path, run_config_path, corpus_dir, capsys, monkeypatch):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        monkeypatch.setattr(workers, "_WORKER_TIMEOUT_S", 60.0)  # the death must read as EOF
        main_pid = os.getpid()
        pid_file = tmp_path / "worker.pid"
        fused = training._fused_loss

        def dying(*args):  # the worker's first pass is in the initial evaluation
            if os.getpid() != main_pid:
                pid_file.write_text(str(os.getpid()))
                os._exit(9)
            return fused(*args)

        monkeypatch.setattr(training, "_fused_loss", dying)
        out = tmp_path / "m.pmrt"
        code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                     "--out", str(out), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "exited with code 9" in err and "retained" not in err
        assert not out.exists()
        assert not Path(str(out) + ".losses.csv").exists()
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)
        assert multiprocessing.active_children() == []

    def test_non_finite_loss_exits_3_and_writes_the_curve_so_far(
            self, tmp_path, run_config_path, corpus_dir, capsys, monkeypatch):
        main_pid = os.getpid()
        fused = training._fused_loss
        steps = []  # each training step's batch, in order; this process runs some of each

        def diverging(batch, *rest):
            loss, count = fused(batch, *rest)
            if numerics._active.stack and os.getpid() == main_pid:
                if not any(batch is seen for seen in steps):
                    steps.append(batch)
                if batch is steps[-1] and len(steps) == 2:
                    loss = numerics.scale(loss, float("nan"))
            return loss, count

        monkeypatch.setattr(training, "_fused_loss", diverging)
        out = tmp_path / "m.pmrt"
        code = main(["train", "--config", run_config_path, "--corpus", str(corpus_dir),
                     "--out", str(out), "--quiet"])
        assert code == 3
        assert ("error: non-finite training loss at step 1 (best checkpoint retained at"
                in capsys.readouterr().err)
        assert load_checkpoint(out).config == ModelConfig(**SMALL_RUN["model"])
        with open(str(out) + ".losses.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "step,train_loss,val_loss"
        assert [line.split(",")[0] for line in lines[1:]] == ["0"]
        assert multiprocessing.active_children() == []

    def test_missing_corpus_exits_2(self, tmp_path, run_config_path):
        code = main(["train", "--config", run_config_path, "--corpus",
                     str(tmp_path / "nowhere"), "--out", str(tmp_path / "m.pmrt"), "--quiet"])
        assert code == 2

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc")
    def test_killed_train_leaves_a_checkpoint_it_saved(self, tmp_path, corpus_dir, monkeypatch):
        # `pmrope train` itself is SIGKILLed at seeded moments after its first
        # save: the file left must be one of the checkpoints the run saves,
        # whole, and no process of its session, its worker included, may live on
        config = tmp_path / "kill.json"
        config.write_text(json.dumps(KILL_RUN))
        argv = ["train", "--config", str(config), "--corpus", str(corpus_dir), "--quiet"]
        saved = set()
        save = training.save_checkpoint

        def recording(path, params):
            saved.add(hashlib.sha256(checkpoint_bytes(params)).hexdigest())
            return save(path, params)

        monkeypatch.setattr(training, "save_checkpoint", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(tmp_path / "whole.pmrt")]) == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        rng = random.Random(0)
        for run in range(3):
            out = tmp_path / f"killed-{run}.pmrt"
            proc = subprocess.Popen([sys.executable, "-m", "pmrope.cli", *argv, "--out", str(out)],
                                    env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, start_new_session=True)
            try:
                deadline = time.monotonic() + 30
                while not out.exists():
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.002)
                time.sleep(rng.uniform(0.0, KILL_WINDOW_S))
                proc.kill()  # the main process only
                proc.wait(timeout=10)
                deadline = time.monotonic() + 10
                while session_processes(proc.pid) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert session_processes(proc.pid) == []
            except (AssertionError, subprocess.TimeoutExpired):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)  # what is left of its session
                raise
            finally:
                proc.wait()
            assert hashlib.sha256(out.read_bytes()).hexdigest() in saved
            assert load_checkpoint(out).config == ModelConfig(**SMALL_RUN["model"])
            left = list(tmp_path.glob(f".{out.name}.*.tmp"))  # the kill skips their removal
            if left:
                warnings.warn(f"a killed train left {len(left)} temporary checkpoint file(s)")


class TestGenerateCommand:
    def test_sampling_flags_default_to_sampler_config(self):
        args = build_parser().parse_args(["generate", "--checkpoint", "m.pmrt", "--text", "1",
                                          "--oracle-length", "4"])
        assert SamplerConfig(args.top_k, args.top_p, args.temperature, args.seed) == \
            SamplerConfig()

    def test_target_seconds_maps_to_tokens_at_50hz(self, checkpoint, tmp_path, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1,2",
                     "--target-seconds", "2.0", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_len"] == 100

    def test_fixed_seed_is_reproducible(self, checkpoint, corpus_dir, capsys):
        args = ["generate", "--checkpoint", str(checkpoint), "--text", "1,2,3",
                "--corpus", str(corpus_dir), "--style", "1",
                "--oracle-length", "8", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_pm_rope_flag_flips_inference_mode(self, checkpoint, capsys):
        base = ["generate", "--checkpoint", str(checkpoint), "--text", "1,2",
                "--oracle-length", "12", "--seed", "3"]
        assert main(base) == 0
        on = json.loads(capsys.readouterr().out)
        assert main(base + ["--pm-rope", "off"]) == 0
        off = json.loads(capsys.readouterr().out)
        assert on["target_len"] == off["target_len"] == 12
        # both decode; mode flip is observable unless the tiny model degenerates
        assert set(on) == {"tokens", "stop_reason", "generated_len", "target_len"}
        assert set(off) == set(on)

    def test_explicit_prompt_tokens(self, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1,2",
                     "--prompt-tokens", "3,4,5", "--oracle-length", "6", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_len"] == 6

    @pytest.mark.parametrize("seconds", ["inf", "nan"])
    def test_non_finite_target_seconds_exits_2(self, checkpoint, capsys, seconds):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--target-seconds", seconds])
        assert code == 2
        assert "duration must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("temperature", ["inf", "nan"])
    def test_non_finite_temperature_exits_2(self, checkpoint, capsys, temperature):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--oracle-length", "4", "--temperature", temperature])
        assert code == 2
        assert "temperature must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--target-seconds", "1e9"),
                                             ("--oracle-length", "1000000000")])
    def test_target_above_the_limit_exits_2(self, checkpoint, capsys, monkeypatch, flag, value):
        def no_decoding(*args):
            raise AssertionError("decoding started")

        monkeypatch.setattr(decoding, "encode_batch", no_decoding)
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1,2,3",
                     flag, value])
        assert code == 2
        assert f"MAX_TARGET_LEN = {MAX_TARGET_LEN}" in capsys.readouterr().err

    def test_target_seconds_past_the_float_range_exits_2(self, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--target-seconds", "1e307"])
        assert code == 2
        assert "1e+307 s at 50 frames per second does not fit a float" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["99999999999999999999", "-99999999999999999999"])
    def test_text_token_past_int64_exits_2(self, checkpoint, capsys, token):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", f"1,{token}",
                     "--oracle-length", "4"])
        assert code == 2
        assert "text token outside [0, " in capsys.readouterr().err

    def test_out_of_range_prompt_token_exits_2(self, checkpoint):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--prompt-tokens", "999", "--oracle-length", "4"])
        assert code == 2

    @pytest.mark.parametrize("token", [64, 65, 66, 68], ids=["bos", "eos", "pad", "separator"])
    def test_control_prompt_token_exits_2(self, checkpoint, capsys, token):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--prompt-tokens", f"3,{token}", "--oracle-length", "4"])
        assert code == 2
        assert f"prompt token {token} outside [0, 64) and not the silence id 67" in \
            capsys.readouterr().err

    def test_silence_prompt_token_accepted(self, checkpoint):
        assert main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--prompt-tokens", "3,67", "--oracle-length", "4"]) == 0

    def test_style_without_corpus_exits_2(self, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--style", "0", "--oracle-length", "4"])
        assert code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path):
        code = main(["generate", "--checkpoint", str(tmp_path / "none.pmrt"),
                     "--text", "1", "--oracle-length", "4"])
        assert code == 2

    def test_result_written_to_file(self, checkpoint, tmp_path, capsys, monkeypatch):
        # the file holds exactly what stdout prints without --out
        results = []

        def recording(*args):
            results.append(decoding.generate(*args))
            return results[-1]

        monkeypatch.setattr(cli, "generate", recording)
        out = tmp_path / "gen.json"
        argv = ["generate", "--checkpoint", str(checkpoint), "--text", "1", "--oracle-length", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert results[0] == results[1]
        assert out.read_bytes() == printed.encode() == (
            json.dumps(asdict(results[0]), indent=2) + "\n").encode()
        assert set(json.loads(printed)) == {"tokens", "stop_reason", "generated_len", "target_len"}


class TestEvalCommand:
    def test_report_schema_and_scatter_rows(self, checkpoint, corpus_dir, tmp_path):
        report_path = tmp_path / "report.json"
        scatter_path = tmp_path / "scatter.csv"
        code = main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                     "--report", str(report_path), "--scatter", str(scatter_path)])
        assert code == 0
        reports = json.loads(report_path.read_text())
        assert [r["metric"] for r in reports] == ["error_rate", "style_similarity",
                                                  "duration_accuracy"]
        for report in reports:
            assert set(report) == {"metric", "mean", "ci_low", "ci_high", "n",
                                   "method", "resamples", "seed"}
            assert report["ci_low"] <= report["mean"] <= report["ci_high"]
        assert reports[2]["method"] == "wilson"
        with open(scatter_path) as fh:
            assert fh.readline().strip() == "utterance,target_duration,generated_duration"
            rows = fh.readlines()
        assert [int(row.split(",")[0]) for row in rows] == list(range(6))  # one per utterance

    def test_rerun_is_byte_identical(self, checkpoint, corpus_dir, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report_{tag}.json"
            scatter = tmp_path / f"scatter_{tag}.csv"
            assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                         "--report", str(report), "--scatter", str(scatter), "--seed", "3"]) == 0
            outputs.append((report.read_bytes(), scatter.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_da_margin_matches_recomputation_from_scatter(self, checkpoint, corpus_dir, tmp_path):
        from pmrope.metrics import duration_accuracy

        report_path = tmp_path / "report.json"
        scatter_path = tmp_path / "scatter.csv"
        main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
              "--report", str(report_path), "--scatter", str(scatter_path)])
        reports = {r["metric"]: r for r in json.loads(report_path.read_text())}
        targets, gens = [], []
        with open(scatter_path) as fh:
            fh.readline()
            for line in fh:
                _, target, gen = line.strip().split(",")
                targets.append(float(target))
                gens.append(float(gen))
        assert reports["duration_accuracy"]["mean"] == pytest.approx(
            duration_accuracy(gens, targets, margin=0.10), abs=1e-9)


    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_exits_2(self, checkpoint, corpus_dir, tmp_path, capsys, limit):
        report_path = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                     "--report", str(report_path), "--limit", limit])
        assert code == 2
        assert "--limit" in capsys.readouterr().err
        assert not report_path.exists()


class TestAblateCommand:
    def test_each_configuration_decodes_as_one_batch(self, corpus_dir, monkeypatch):
        """One prefill pass per configuration: the split shares one prompt
        length, so it decodes as one lockstep batch."""
        corpus = load_corpus(corpus_dir)
        assert len(corpus.test) == 6
        config = ModelConfig(**SMALL_RUN["model"], audio_vocab=corpus.audio_vocab)
        params = init_params(config, seed=0)
        decoder_batch = decoding.decoder_batch
        widths = []

        def recording(streams, *args, **kwargs):
            widths.append(streams.shape[1])
            return decoder_batch(streams, *args, **kwargs)

        monkeypatch.setattr(decoding, "decoder_batch", recording)
        for pm_rope in (True, False):
            widths.clear()
            evaluate_model(params, replace(config, pm_rope_enabled=pm_rope), corpus.spec,
                           corpus.test, SamplerConfig())
            assert sum(width > 1 for width in widths) == 1

    def test_paired_report_has_two_blocks_and_deltas(self, checkpoint, corpus_dir, tmp_path):
        report_path = tmp_path / "ablate.json"
        code = main(["ablate", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                     "--report", str(report_path), "--limit", "4"])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert set(payload["configurations"]) == {"pm_on", "pm_off"}
        assert set(payload["deltas"]) == {"error_rate", "style_similarity",
                                          "duration_accuracy"}
        for block in payload["configurations"].values():
            assert set(block) == {"error_rate", "style_similarity", "duration_accuracy"}

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_exits_2(self, checkpoint, corpus_dir, tmp_path, capsys, limit):
        report_path = tmp_path / "ablate.json"
        code = main(["ablate", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                     "--report", str(report_path), "--limit", limit])
        assert code == 2
        assert "--limit" in capsys.readouterr().err
        assert not report_path.exists()

    def test_report_is_identical_with_and_without_the_worker(self, tmp_path, monkeypatch):
        main_pid = os.getpid()
        arms = tmp_path / "arms.txt"
        evaluate = cli.evaluate_model

        def recording(params, config, *rest):  # which arm runs in which process
            with open(arms, "a") as fh:
                fh.write(f"{config.pm_rope_enabled} {os.getpid() == main_pid}\n")
            return evaluate(params, config, *rest)

        monkeypatch.setattr(cli, "evaluate_model", recording)
        corpus = tmp_path / "corpus"
        reports = []
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["corpus", "--out", str(corpus)]) == 0
            for worker_on in (True, False):
                monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: worker_on)
                report = tmp_path / f"ablate-{worker_on}.json"
                assert main(["ablate", "--checkpoint", str(REFERENCE), "--corpus", str(corpus),
                             "--report", str(report), "--limit", "60"]) == 0
                reports.append(report.read_bytes())
                assert sorted(arms.read_text().splitlines()) == [f"False {not worker_on}",
                                                                 "True True"]
                arms.unlink()
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []

    def test_killed_worker_exits_3_and_writes_no_report(self, corpus_dir, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        monkeypatch.setattr(workers, "_WORKER_TIMEOUT_S", 60.0)  # the death must read as EOF
        main_pid = os.getpid()
        pid_file = tmp_path / "worker.pid"
        decoder_batch = decoding.decoder_batch
        calls = []

        def dying(*args):
            if os.getpid() != main_pid:  # in the worker's arm
                calls.append(None)
                if len(calls) == 3:
                    pid_file.write_text(str(os.getpid()))
                    os.kill(os.getpid(), signal.SIGKILL)
            return decoder_batch(*args)

        monkeypatch.setattr(decoding, "decoder_batch", dying)
        report = tmp_path / "ablate.json"
        code = main(["ablate", "--checkpoint", str(REFERENCE), "--corpus", str(corpus_dir),
                     "--report", str(report)])
        assert code == 3
        assert "error: worker (pid" in capsys.readouterr().err
        assert not report.exists()
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)
        assert multiprocessing.active_children() == []

    def test_error_in_the_worker_exits_2_as_it_does_alone(self, corpus_dir, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(workers, "_worker_wanted", lambda pinned: True)
        main_pid = os.getpid()
        decoder_batch = decoding.decoder_batch

        def failing(*args):
            if os.getpid() != main_pid:
                raise ValueError("token id outside [0, 69) in the worker")
            return decoder_batch(*args)

        monkeypatch.setattr(decoding, "decoder_batch", failing)
        report = tmp_path / "ablate.json"
        code = main(["ablate", "--checkpoint", str(REFERENCE), "--corpus", str(corpus_dir),
                     "--report", str(report)])
        assert code == 2
        assert "error: token id outside [0, 69) in the worker" in capsys.readouterr().err
        assert not report.exists()
        assert multiprocessing.active_children() == []


# corpus run-config overrides that leave a corpus the SMALL_RUN model cannot
# read, and the two values the refusal must name
MISFITS = {
    "audio_vocab": ({"model": {"audio_vocab": 48}}, ("audio_vocab 48", "audio_vocab 64")),
    "n_symbols": ({"corpus": {"n_symbols": 40}}, ("n_symbols 40", "text_vocab 32")),
}


class TestCorpusModelFit:
    """Every command that runs a model on a corpus refuses, before any work, a
    corpus whose alphabets the model does not have."""

    @pytest.fixture(params=sorted(MISFITS))
    def misfit(self, request, tmp_path):
        """(corpus dir, untrained SMALL_RUN checkpoint, names the error must hold)."""
        override, names = MISFITS[request.param]
        run = {section: {**values, **override.get(section, {})}
               for section, values in SMALL_RUN.items()}
        (tmp_path / "misfit.json").write_text(json.dumps(run))
        corpus = tmp_path / "misfit"
        assert main(["corpus", "--config", str(tmp_path / "misfit.json"),
                     "--out", str(corpus)]) == 0
        checkpoint = tmp_path / "untrained.pmrt"
        save_checkpoint(checkpoint, init_params(ModelConfig(**SMALL_RUN["model"]), seed=0))
        return corpus, checkpoint, names

    @staticmethod
    def assert_refused(capsys, code, names, *unwritten):
        err = capsys.readouterr().err
        assert code == 2 and all(name in err for name in names), err
        assert not any(path.exists() for path in unwritten)

    def test_train(self, misfit, run_config_path, tmp_path, capsys):
        corpus, _, names = misfit
        out = tmp_path / "m.pmrt"
        code = main(["train", "--config", run_config_path, "--corpus", str(corpus),
                     "--out", str(out), "--quiet"])
        self.assert_refused(capsys, code, names, out, Path(str(out) + ".losses.csv"))

    def test_eval(self, misfit, tmp_path, capsys):
        corpus, checkpoint, names = misfit
        report = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                     "--report", str(report)])
        self.assert_refused(capsys, code, names, report)

    def test_ablate(self, misfit, tmp_path, capsys):
        corpus, checkpoint, names = misfit
        report = tmp_path / "ablate.json"
        code = main(["ablate", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                     "--report", str(report)])
        self.assert_refused(capsys, code, names, report)

    def test_generate_with_a_style_prompt(self, misfit, tmp_path, capsys):
        corpus, checkpoint, names = misfit
        out = tmp_path / "gen.json"
        code = main(["generate", "--checkpoint", str(checkpoint), "--text", "1",
                     "--corpus", str(corpus), "--style", "1", "--oracle-length", "4",
                     "--out", str(out)])
        self.assert_refused(capsys, code, names, out)


class TestPathKinds:
    """A path of the wrong kind is a usage error (exit 2), as a missing one is."""

    def test_checkpoint_that_is_a_directory(self, tmp_path, corpus_dir, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path), "--corpus", str(corpus_dir),
                     "--report", str(tmp_path / "report.json")])
        assert code == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_config_that_is_a_directory(self, tmp_path, corpus_dir, capsys):
        code = main(["train", "--config", str(tmp_path), "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "m.pmrt"), "--quiet"])
        assert code == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_corpus_that_is_a_file(self, tmp_path, run_config_path, capsys):
        code = main(["train", "--config", run_config_path, "--corpus", run_config_path,
                     "--out", str(tmp_path / "m.pmrt"), "--quiet"])
        assert code == 2
        assert "Not a directory" in capsys.readouterr().err


    def test_corpus_out_that_is_a_file(self, tmp_path, run_config_path, capsys):
        code = main(["corpus", "--config", run_config_path, "--out", run_config_path])
        assert code == 2
        assert "File exists" in capsys.readouterr().err


class TestDurationCommand:
    def test_reference_ratio_output(self, capsys):
        assert main(["duration", "--ref-seconds", "5.0", "--ref-units", "50",
                     "--tgt-units", "100"]) == 0
        assert capsys.readouterr().out.strip() == "10.000 s, 500 tokens"

    def test_large_duration_adds_no_token(self, capsys):
        assert main(["duration", "--ref-seconds", "40000000", "--ref-units", "1",
                     "--tgt-units", "1"]) == 0
        assert capsys.readouterr().out.strip() == "40000000.000 s, 2000000000 tokens"

    def test_default_rate_output(self, capsys):
        assert main(["duration", "--lang", "EN", "--tgt-units", "20"]) == 0
        out = capsys.readouterr().out
        assert "1.700 s" in out

    def test_unknown_language_exit_2_lists_tags(self, capsys):
        assert main(["duration", "--lang", "XX", "--tgt-units", "5"]) == 2
        err = capsys.readouterr().err
        for tag in ("EN", "JA", "ZH"):
            assert tag in err

    def test_reference_duration_past_the_float_range_exits_2(self, capsys):
        assert main(["duration", "--ref-seconds", "1e307", "--ref-units", "1",
                     "--tgt-units", "1"]) == 2
        assert "1e+307 s at 50 frames per second does not fit a float" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [("--tgt-units", "target unit count"),
                                            ("--ref-units", "reference unit count"),
                                            ("--frame-rate", "frame rate")])
    def test_count_past_the_float_range_exits_2(self, capsys, flag, name):
        args = {"--ref-seconds": "5.0", "--ref-units": "50", "--tgt-units": "100"}
        if flag == "--tgt-units":  # by the default rate, as in the reference case below
            args = {"--lang": "EN", "--tgt-units": "20"}
        args[flag] = "1" + "0" * 400
        assert main(["duration", *(part for item in args.items() for part in item)]) == 2
        assert f"{name} 1{'0' * 400} does not fit a float" in capsys.readouterr().err

    def test_module_entry_point(self):
        import os
        import pmrope

        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(pmrope.__file__))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "pmrope.cli", "duration", "--lang", "JA",
             "--tgt-units", "10"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "1.000 s" in proc.stdout
