"""Binary weight container.

Layout (little-endian throughout):
    magic "MVIG" | version u32 | name_len u32 + variant name utf-8 |
    entry_count u32 | per entry: name_len u32 + utf-8 name, rank u32,
    dims as u32 each, then raw float32 data in C order.

Round-trips are bitwise lossless for float32 arrays.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .arch import ModelWeights, VariantConfig, build_model, named_params
from .tensor_core import Array

MAGIC = b"MVIG"
VERSION = 1


class WeightsFormatError(ValueError):
    pass


def save_weights(path: str, weights: ModelWeights) -> None:
    entries = list(named_params(weights))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        name_b = weights.variant.encode("utf-8")
        f.write(struct.pack("<I", len(name_b)))
        f.write(name_b)
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    """Reads a weights file, checking every length against the bytes left
    before reading, so a corrupt length fails fast instead of asking for up
    to 16 GiB."""

    def __init__(self, f, path: str) -> None:
        self.f = f
        self.path = path
        self.left = os.fstat(f.fileno()).st_size

    def read(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise WeightsFormatError(
                f"{self.path}: {what} needs {n} bytes, only {self.left} left "
                f"(truncated or corrupt file)")
        buf = self.f.read(n)
        if len(buf) != n:
            raise WeightsFormatError(f"{self.path}: truncated weights file")
        self.left -= n
        return buf

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.read(4, what))[0]

    def text(self, what: str) -> str:
        raw = self.read(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise WeightsFormatError(f"{self.path}: {what} is not valid utf-8") from None


def load_weights(path: str) -> tuple[str, dict[str, Array]]:
    """Reads a weights file into (variant name, name -> float32 array)."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.read(4, "magic") != MAGIC:
            raise WeightsFormatError(f"{path}: not a MVIG weights file (bad magic)")
        version = r.u32("version")
        if version != VERSION:
            raise WeightsFormatError(
                f"{path}: unsupported format version {version} (expected {VERSION})")
        variant = r.text("variant name")
        count = r.u32("entry count")
        out: dict[str, Array] = {}
        for _ in range(count):
            name = r.text("entry name")
            if name in out:
                raise WeightsFormatError(f"{path}: entry {name!r} appears more than once")
            rank = r.u32(f"rank of {name!r}")
            shape = struct.unpack(f"<{rank}I", r.read(4 * rank, f"dims of {name!r}"))
            data = np.frombuffer(r.read(4 * math.prod(shape), f"data of {name!r}"), dtype="<f4")
            try:
                out[name] = data.reshape(shape).astype(np.float32, copy=True)
            except ValueError as exc:  # a zero dim beside dims numpy cannot index
                raise WeightsFormatError(f"{path}: entry {name!r}: {exc}") from None
        if r.left:
            raise WeightsFormatError(f"{path}: trailing bytes after last entry")
    return variant, out


def load_into_model(path: str, cfg: VariantConfig) -> ModelWeights:
    """Builds a zero-filled weight skeleton for cfg and fills it from the
    file, checking that names and shapes line up exactly and that every
    batch-norm variance is non-negative (NaN is rejected), as conv_bn
    requires.
    """
    variant, loaded = load_weights(path)
    if variant != cfg.name:
        raise WeightsFormatError(
            f"{path}: file holds variant {variant!r}, expected {cfg.name!r}")
    model = build_model(cfg, skeleton=True)
    expected = list(named_params(model))
    if len(expected) != len(loaded):
        raise WeightsFormatError(
            f"{path}: {len(loaded)} entries, model expects {len(expected)}")
    for name, arr in expected:
        if name not in loaded:
            raise WeightsFormatError(f"{path}: missing parameter {name!r}")
        src = loaded[name]
        if src.shape != arr.shape:
            raise WeightsFormatError(
                f"{path}: parameter {name!r} has shape {src.shape}, "
                f"model expects {arr.shape}")
        if name.endswith(".bn.var") and not np.all(src >= 0):
            raise WeightsFormatError(
                f"{path}: parameter {name!r} must be non-negative, "
                f"holds {src[~(src >= 0)][0]}")
        arr[...] = src
    return model
