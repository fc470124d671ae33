"""Binary checkpoint files: "PMRT" magic, versioned, little-endian float32.

Layout: magic, uint32 version, length-prefixed JSON config record, uint32
tensor count, a directory of (name length, UTF-8 name, dtype code 0 = float32,
rank, dims) entries, then the contiguous row-major payloads in directory
order. Save -> load -> save round-trips byte-identically.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .model import ModelConfig, ModelParams, config_from_record, param_shapes
from .numerics import Tensor

MAGIC = b"PMRT"
VERSION = 1
DTYPE_FLOAT32 = 0


class CheckpointError(ValueError):
    """Raised on a malformed or unsupported checkpoint file."""


def _u32(value: int) -> bytes:
    return struct.pack("<I", value)


def checkpoint_bytes(params: ModelParams) -> bytes:
    config_blob = json.dumps(asdict(params.config), sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, _u32(VERSION), _u32(len(config_blob)), config_blob, _u32(len(params.tensors))]
    payloads = []
    for name, tensor in params.items():
        name_bytes = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f4")
        parts.append(_u32(len(name_bytes)))
        parts.append(name_bytes)
        parts.append(_u32(DTYPE_FLOAT32))
        parts.append(_u32(arr.ndim))
        for dim in arr.shape:
            parts.append(_u32(dim))
        payloads.append(arr.tobytes())
    return b"".join(parts + payloads)


def save_checkpoint(path, params: ModelParams) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(params))


def _check_directory(directory: list, expected: dict) -> None:
    """The tensor directory must name each tensor the config needs once, at its shape."""
    names = [name for name, _ in directory]
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate tensor names in checkpoint directory")
    missing = [name for name in expected if name not in names]
    if missing:
        raise CheckpointError(f"checkpoint lacks tensors the config needs: {', '.join(missing)}")
    extra = [name for name in names if name not in expected]
    if extra:
        raise CheckpointError(f"checkpoint has tensors the config does not use: {', '.join(extra)}")
    for name, shape in directory:
        if shape != expected[name]:
            raise CheckpointError(
                f"tensor {name!r} has shape {shape}, the config needs {expected[name]}")


def params_from_bytes(blob: bytes) -> ModelParams:
    view = memoryview(blob)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise CheckpointError("truncated checkpoint")
        chunk = view[offset:offset + n]
        offset += n
        return chunk

    def read_u32() -> int:
        return struct.unpack("<I", take(4))[0]

    if bytes(take(4)) != MAGIC:
        raise CheckpointError("bad magic; not a PMRT checkpoint")
    version = read_u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    config_blob = bytes(take(read_u32()))
    try:
        config = config_from_record(ModelConfig, json.loads(config_blob.decode("utf-8")))
    except ValueError as err:  # also bad UTF-8 and bad JSON
        raise CheckpointError(f"bad config record: {err}") from None
    n_tensors = read_u32()
    directory = []
    for _ in range(n_tensors):
        name = bytes(take(read_u32())).decode("utf-8")
        dtype_code = read_u32()
        if dtype_code != DTYPE_FLOAT32:
            raise CheckpointError(f"unsupported dtype code {dtype_code}")
        rank = read_u32()
        shape = tuple(read_u32() for _ in range(rank))
        directory.append((name, shape))
    _check_directory(directory, param_shapes(config))
    tensors = {}
    for name, shape in directory:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(count * 4), dtype="<f4").reshape(shape).astype(np.float32)
        tensors[name] = Tensor(arr, requires_grad=True)
    if offset != len(view):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return ModelParams(tensors, config)


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
