"""Versioned binary checkpoint container for trained weights.

Layout (all integers little-endian):

    magic   "CMDW" (4 bytes)
    version u16
    config  height,width,bands,token,heads,stages u32 each,
            share u8, base_width,est_hidden,dispersion_step u32 each
    count   u32 named tensors
    tensor  name_len u16, name utf-8, ndim u8, dims u32 each,
            payload float32

The coded-aperture mask rides along as the named tensor ``sensing.mask`` so
a checkpoint is self-contained for reconstruction.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .hsio import write_atomic
from .network import NetConfig

MAGIC = b"CMDW"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file or config mismatch."""


# the config header in on-disk order: six u32, share_params as u8, three u32
_CONFIG_FIELDS = ("height", "width", "bands", "token", "heads", "stages", "share_params",
                  "base_width", "est_hidden", "dispersion_step")
_CONFIG_FORMAT = "<6IB3I"
_CONFIG_SIZE = struct.calcsize(_CONFIG_FORMAT)


def _pack_config(cfg: NetConfig) -> bytes:
    return struct.pack(_CONFIG_FORMAT, *(getattr(cfg, name) for name in _CONFIG_FIELDS))


def _unpack_config(buf: bytes) -> NetConfig:
    vals = dict(zip(_CONFIG_FIELDS, struct.unpack(_CONFIG_FORMAT, buf)))
    return NetConfig(**vals | {"share_params": bool(vals["share_params"])})


def save_weights(path, cfg: NetConfig, tensors: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<H", VERSION), _pack_config(cfg),
             struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        arr32 = np.asarray(arr, dtype="<f4")
        if arr32.ndim:
            arr32 = np.ascontiguousarray(arr32)
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr32.ndim))
        parts.append(struct.pack(f"<{arr32.ndim}I", *arr32.shape))
        parts.append(arr32.tobytes())
    write_atomic(path, parts)


def load_weights(path) -> tuple[NetConfig, dict[str, np.ndarray]]:
    buf = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(buf):
            raise CheckpointError(f"truncated checkpoint at byte {off}: "
                                  f"wanted {n} more, have {len(buf) - off}")
        chunk = buf[off:off + n]
        off += n
        return chunk

    if take(4) != MAGIC:
        raise CheckpointError("bad magic: not a CMDW checkpoint")
    (version,) = struct.unpack("<H", take(2))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    cfg = _unpack_config(take(_CONFIG_SIZE))
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        start = off
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor name at byte {start} is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"tensor {name} appears more than once")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        data = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"tensor {name} holds non-finite values (NaN or inf)")
        tensors[name] = data.copy()
    if off != len(buf):
        raise CheckpointError(f"{len(buf) - off} trailing bytes after tensor table")
    return cfg, tensors
