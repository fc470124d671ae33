import json
import struct

import numpy as np
import pytest

from pmrope.checkpoint import (
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    params_from_bytes,
    save_checkpoint,
)
from pmrope.cli import main
from pmrope.model import ModelParams, decoder_forward, encode
from pmrope.numerics import Tensor
from pmrope.positional import ProgressSchedule


def test_save_load_save_is_byte_identical(tiny_model, tmp_path):
    params, _ = tiny_model
    path = tmp_path / "model.pmrt"
    save_checkpoint(path, params)
    first = path.read_bytes()
    loaded = load_checkpoint(path)
    save_checkpoint(path, loaded)
    assert path.read_bytes() == first


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
    sched = ProgressSchedule(4), ProgressSchedule(2)
    a = decoder_forward(stream, encode([1, 2], params, config), *sched, params, config)
    b = decoder_forward(stream, encode([1, 2], loaded, loaded.config), *sched, loaded, loaded.config)
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
], ids=["unknown_key", "string_int", "string_bool", "not_an_object", "not_json", "not_utf8"])
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
