"""Binary model checkpoints: a small self-describing tensor container.

Layout (all integers little-endian u32, strings utf-8, tensors float32
little-endian in C order, sorted by name so rewriting a loaded file is
byte-identical):

    b"QLDM" | version | len+kind | len+config JSON | n_tensors
    then per tensor: len+name | ndim | dims... | raw data

A model's config JSON is ``dataclasses.asdict`` of its config plus run
keys; :func:`config_from_echo` rebuilds the config from it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .layers import Module

MAGIC = b"QLDM"
VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: model kind, config echo, named tensors."""

    kind: str
    config: dict
    tensors: dict[str, np.ndarray]


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def save_checkpoint(path, kind: str, config: dict,
                    tensors: dict[str, np.ndarray]) -> Path:
    """Write tensors with their config to ``path``; returns the path."""
    path = Path(path)
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += _pack_str(kind)
    blob += _pack_str(json.dumps(config, sort_keys=True,
                                 separators=(",", ":")))
    names = sorted(tensors)
    blob += struct.pack("<I", len(names))
    for name in names:
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(tensors[name], dtype="<f4")
        blob += _pack_str(name)
        blob += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
        blob += arr.tobytes()
    path.write_bytes(bytes(blob))
    return path


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated checkpoint file")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    kind = reader.text()
    config = json.loads(reader.text())
    tensors = {}
    for _ in range(reader.u32()):
        name = reader.text()
        ndim = reader.u32()
        shape = tuple(reader.u32() for _ in range(ndim))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(reader.take(count * 4), dtype="<f4")
        tensors[name] = arr.reshape(shape).copy()
    if reader.pos != len(reader.data):
        raise ValueError("trailing bytes after last tensor")
    return Checkpoint(kind=kind, config=config, tensors=tensors)


def config_from_echo(cls, echo: dict):
    """Rebuild dataclass ``cls`` from a config echo, skipping run keys
    (such as ``timesteps``) that are not fields of ``cls``."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in echo.items() if k in names})


def state_dict(model: Module) -> dict[str, np.ndarray]:
    """Named parameter arrays of a model, cast to float32."""
    return {name: p.data.astype(np.float32)
            for name, p in model.named_parameters()}


def load_state_dict(model: Module, tensors: dict[str, np.ndarray]) -> None:
    """Copy checkpoint tensors into a model's parameters, by name.

    The name sets and every shape must match exactly.
    """
    params = dict(model.named_parameters())
    missing = sorted(set(params) - set(tensors))
    unexpected = sorted(set(tensors) - set(params))
    if missing or unexpected:
        raise ValueError(
            f"state mismatch: missing {missing}, unexpected {unexpected}")
    for name, p in params.items():
        arr = tensors[name]
        if tuple(arr.shape) != p.data.shape:
            raise ValueError(
                f"shape mismatch for {name}: "
                f"checkpoint {tuple(arr.shape)} vs model {p.data.shape}")
        p.data = arr.astype(np.float64)
