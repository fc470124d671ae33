import json
import os
import signal
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmrope
from pmrope import checkpoint
from pmrope.checkpoint import (
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    params_from_bytes,
    save_checkpoint,
)
from pmrope.cli import main
from pmrope.model import ModelConfig, ModelParams, decoder_forward, encode, init_params
from pmrope.numerics import Tensor


def test_save_load_save_is_byte_identical(tiny_model, tmp_path):
    params, _ = tiny_model
    path = tmp_path / "model.pmrt"
    save_checkpoint(path, params)
    first = path.read_bytes()
    loaded = load_checkpoint(path)
    save_checkpoint(path, loaded)
    assert path.read_bytes() == first


def test_int_valued_float_field_of_an_older_header_loads_as_a_float(tiny_model, tmp_path):
    # a config built from JSON ints wrote "rope_base":10000 before float fields
    # were converted on load; such a file loads, and saves again as 10000.0
    params, _ = tiny_model
    older = ModelParams(params.tensors, ModelConfig(**dict(
        vars(params.config), rope_base=10000, progress_scale=1)))
    path = tmp_path / "older.pmrt"
    save_checkpoint(path, older)
    first = path.read_bytes()
    assert b'"rope_base":10000,' in first and b'"progress_scale":1,' in first
    loaded = load_checkpoint(path)
    assert loaded.config == older.config
    assert type(loaded.config.rope_base) is float and type(loaded.config.progress_scale) is float
    save_checkpoint(path, loaded)

    def record_and_tensors(blob):
        (size,) = struct.unpack("<I", blob[8:12])
        return blob[12:12 + size], blob[12 + size:]

    record, tensors = record_and_tensors(path.read_bytes())
    assert record == record_and_tensors(first)[0].replace(
        b'"progress_scale":1,', b'"progress_scale":1.0,').replace(
        b'"rope_base":10000,', b'"rope_base":10000.0,')
    assert tensors == record_and_tensors(first)[1]


class _HalfWriter:
    """File stand-in whose write stores half the bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")


@pytest.mark.parametrize("failure", ["write", "fsync", "replace"])
def test_failed_save_keeps_the_previous_checkpoint(tiny_model, tmp_path, monkeypatch, failure):
    params, _ = tiny_model
    path = tmp_path / "model.pmrt"
    save_checkpoint(path, params)
    before = path.read_bytes()
    changed = params.copy()
    changed.tensors["head.w2"].data += 1.0

    def fail(*args, **kwargs):
        raise OSError(f"{failure} failed")

    with monkeypatch.context() as patch:
        if failure == "write":
            patch.setattr(checkpoint, "open", lambda *a, **k: _HalfWriter(open(*a, **k)),
                          raising=False)
        else:
            patch.setattr(checkpoint.os, failure, fail)
        with pytest.raises(OSError):
            save_checkpoint(path, changed)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.pmrt"]
    save_checkpoint(path, changed)
    assert path.read_bytes() == checkpoint_bytes(changed)


KILL_CONFIG = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=8, n_heads=2, head_dim=4,
                          ffn_dim=16, text_vocab=6, audio_vocab=8)

#: saves the seed-0 parameters to argv[1], then SIGKILLs itself inside a save
#: of the seed-1 parameters: after their bytes are written and fsynced, at
#: the moment the save would rename them over the file
KILLED_SAVE = textwrap.dedent("""
    import os, signal, sys
    from pmrope import checkpoint
    from pmrope.model import ModelConfig, init_params

    config = ModelConfig(**{config})
    checkpoint.save_checkpoint(sys.argv[1], init_params(config, seed=0))
    checkpoint.os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
    checkpoint.save_checkpoint(sys.argv[1], init_params(config, seed=1))
""").format(config=KILL_CONFIG.__dict__)


def test_a_save_killed_before_its_rename_leaves_the_last_checkpoint(tmp_path):
    path = tmp_path / "model.pmrt"
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(pmrope.__file__))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", KILLED_SAVE, str(path)], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode(errors="replace")
    first = checkpoint_bytes(init_params(KILL_CONFIG, seed=0))
    assert path.read_bytes() == first
    assert checkpoint_bytes(load_checkpoint(path)) == first
    # the killed save got as far as its temporary file, whole
    (tmp,) = [p for p in tmp_path.iterdir() if p != path]
    assert tmp.read_bytes() == checkpoint_bytes(init_params(KILL_CONFIG, seed=1))


def test_loaded_tensors_match_exactly(tiny_model, tmp_path):
    params, config = tiny_model
    path = tmp_path / "model.pmrt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded.tensors) == list(params.tensors)
    assert loaded.config == config
    for name in params.tensors:
        assert np.array_equal(loaded[name].data, params[name].data)


def test_loaded_model_reproduces_logits(tiny_model, tmp_path):
    params, config = tiny_model
    path = tmp_path / "model.pmrt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    stream = [8, 1, 2, 3]
    a = decoder_forward(stream, encode([1, 2], params, config), 4, params, config)
    b = decoder_forward(stream, encode([1, 2], loaded, loaded.config), 4, loaded, loaded.config)
    assert np.array_equal(a.data, b.data)


def test_bad_magic_rejected(tiny_model):
    params, _ = tiny_model
    blob = bytearray(checkpoint_bytes(params))
    blob[:4] = b"NOPE"
    with pytest.raises(CheckpointError, match="magic"):
        params_from_bytes(bytes(blob))


def test_truncated_payload_rejected(tiny_model):
    params, _ = tiny_model
    blob = checkpoint_bytes(params)
    with pytest.raises(CheckpointError, match="truncated"):
        params_from_bytes(blob[:-8])


def test_trailing_bytes_rejected(tiny_model):
    params, _ = tiny_model
    with pytest.raises(CheckpointError, match="trailing"):
        params_from_bytes(checkpoint_bytes(params) + b"\x00")


def _with_config_blob(params, edit) -> bytes:
    """Checkpoint bytes whose config record is replaced by edit(original record)."""
    blob = checkpoint_bytes(params)
    n = struct.unpack("<I", blob[8:12])[0]
    config = edit(json.loads(blob[12:12 + n]))
    new = config if isinstance(config, bytes) else json.dumps(config).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + n:]


@pytest.mark.parametrize("edit, message", [
    (lambda c: dict(c, head_dimm=4), "head_dimm"),
    (lambda c: dict(c, d_model=str(c["d_model"])), "d_model"),
    (lambda c: dict(c, pm_rope_enabled="yes"), "pm_rope_enabled"),
    (lambda c: [c], "JSON object"),
    (lambda c: b"{not json", "bad config record"),
    (lambda c: b"\xff\xfe", "bad config record"),
    (lambda c: dict(c, progress_scale=float("nan")), "progress_scale"),
], ids=["unknown_key", "string_int", "string_bool", "not_an_object", "not_json", "not_utf8",
        "nan_progress_scale"])
def test_bad_config_record_rejected(tiny_model, tmp_path, capsys, edit, message):
    params, _ = tiny_model
    path = tmp_path / "model.pmrt"
    path.write_bytes(_with_config_blob(params, edit))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    code = main(["generate", "--checkpoint", str(path), "--text", "1,2", "--oracle-length", "3"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda t: {n: v for n, v in t.items() if n != "head.w2"}, "lacks tensors the config needs: head.w2"),
    (lambda t: dict(t, extra=Tensor(np.zeros(3))), "does not use: extra"),
    (lambda t: dict(t, **{"head.w1": Tensor(np.zeros((8, 9)))}), "'head.w1' has shape (8, 9)"),
], ids=["missing", "extra", "misshaped"])
def test_tensors_checked_against_config(tiny_model, tmp_path, capsys, edit, message):
    params, config = tiny_model
    path = tmp_path / "model.pmrt"
    path.write_bytes(checkpoint_bytes(ModelParams(edit(dict(params.tensors)), config)))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert message in str(err.value)
    code = main(["generate", "--checkpoint", str(path), "--text", "1,2", "--oracle-length", "3"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_duplicate_tensor_name_rejected(tiny_model):
    params, config = tiny_model
    tensors = dict(params.tensors, **{"dec.0.self.wZ": params["dec.0.self.wk"]})
    blob = checkpoint_bytes(ModelParams(tensors, config))
    with pytest.raises(CheckpointError, match="duplicate"):
        params_from_bytes(blob.replace(b"dec.0.self.wZ", b"dec.0.self.wk"))


def test_non_utf8_tensor_name_rejected(tiny_model, tmp_path, capsys):
    params, _ = tiny_model
    blob = checkpoint_bytes(params)
    assert blob.count(b"audio_emb") == 1  # the second directory entry
    path = tmp_path / "model.pmrt"
    path.write_bytes(blob.replace(b"audio_emb", b"audio\xe5emb"))
    with pytest.raises(CheckpointError, match="directory entry 1 is not UTF-8"):
        load_checkpoint(path)
    code = main(["generate", "--checkpoint", str(path), "--text", "1,2", "--oracle-length", "3"])
    assert code == 2
    assert "directory entry 1 is not UTF-8" in capsys.readouterr().err


_TINY = init_params(ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=8, n_heads=2,
                                head_dim=4, ffn_dim=16, text_vocab=6, audio_vocab=8), seed=7)
_BLOB = checkpoint_bytes(_TINY)
#: magic, version, config record, tensor count and directory: all but the payloads
_HEADER = len(_BLOB) - 4 * sum(t.data.size for _, t in _TINY.items())


def _flipped(bits) -> bytes:
    blob = bytearray(_BLOB)
    for bit in bits:
        blob[bit // 8] ^= 1 << bit % 8
    return bytes(blob)


def test_every_truncation_is_refused():
    for end in range(len(_BLOB)):
        with pytest.raises(CheckpointError):
            params_from_bytes(_BLOB[:end])


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(0, len(_BLOB) - 1).map(lambda end: _BLOB[:end]),
    st.lists(st.integers(0, 8 * _HEADER - 1), min_size=1, max_size=2, unique=True).map(_flipped)))
def test_damaged_header_loads_or_raises_checkpoint_error(blob):
    try:
        params_from_bytes(blob)
    except CheckpointError:
        pass
