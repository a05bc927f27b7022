"""Binary checkpoint format.

Layout (all integers little-endian, unsigned):

    bytes 0..3   magic "GTCN"
    u32          format version (currently 1)
    u32          config byte length, then that many UTF-8 bytes
                 (the canonical key=value text of ModelConfig)
    u32          parameter count
    per parameter, in name order (the order names were added to the
    store, which is not the buffer order; see ParameterStore):
        u16      name byte length, then the UTF-8 name
        u8       rank
        u32[rank] dims
        f64[prod(dims)] values, C order, little-endian

The config text is canonical (serialize-parse-serialize is identity), so
save -> load -> save reproduces the file byte for byte. Loading rejects
text that is not UTF-8, a rank past 32, dims numpy cannot shape and
parameters holding NaN or Inf with CheckpointCorruptError.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import CheckpointCorruptError, CheckpointFormatError
from .tensor import ParameterStore

MAGIC = b"GTCN"
VERSION = 1


@dataclass
class Checkpoint:
    config: ModelConfig
    arrays: dict  # name -> float64 ndarray, insertion-ordered


def save_checkpoint(path, params: ParameterStore, config: ModelConfig):
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    cfg_bytes = config.to_text().encode("utf-8")
    chunks.append(struct.pack("<I", len(cfg_bytes)))
    chunks.append(cfg_bytes)
    chunks.append(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        arr = tensor.data
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8", copy=False).tobytes(order="C"))
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointCorruptError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def text(self, n: int, what: str) -> str:
        start = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointCorruptError(
                f"{what} has invalid UTF-8 at offset {start + e.start}"
            ) from None

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError(f"bad magic in {path}")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = r.unpack("<I")
    config = ModelConfig.from_text(r.text(cfg_len, "config text"))
    (n_params,) = r.unpack("<I")
    arrays = {}
    for _ in range(n_params):
        name = r.text(r.unpack("<H")[0], "parameter name")
        (rank,) = r.unpack("<B")
        if rank > 32:  # numpy's limit before 2.0; a model parameter has rank 3 at most
            raise CheckpointCorruptError(f"parameter {name!r} has rank {rank}, past 32")
        dims = r.unpack(f"<{rank}I")
        data = np.frombuffer(r.take(8 * math.prod(dims)), dtype="<f8")
        try:   # numpy refuses a zero-size shape whose other dims overflow its size
            data = data.reshape(dims)
        except ValueError:
            raise CheckpointCorruptError(
                f"parameter {name!r} has dims {dims}, too big for an array") from None
        if name in arrays:
            raise CheckpointCorruptError(f"duplicate parameter {name!r}")
        if not np.isfinite(data).all():
            raise CheckpointCorruptError(f"parameter {name!r} holds non-finite values")
        arrays[name] = data.astype(np.float64)
    if r.pos != len(blob):
        raise CheckpointCorruptError(f"{len(blob) - r.pos} trailing bytes after parameters")
    return Checkpoint(config=config, arrays=arrays)
