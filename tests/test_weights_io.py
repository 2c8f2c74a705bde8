import struct

import numpy as np
import pytest

from mobilevig import weights_io
from mobilevig.arch import VARIANTS, build_model, model_forward, named_params
from mobilevig.weights_io import (
    MAGIC,
    VERSION,
    WeightsFormatError,
    load_into_model,
    load_weights,
    save_weights,
)


def rand_input(size, seed=0):
    return np.random.default_rng(seed).standard_normal((1, 3, size, size)).astype(np.float32)


def test_roundtrip_is_bitwise_lossless(tmp_path):
    cfg = VARIANTS["Ti"]
    model = build_model(cfg, seed=7)
    path = tmp_path / "ti.mvig"
    save_weights(str(path), model)
    variant, loaded = load_weights(str(path))
    assert variant == "Ti"
    for name, arr in named_params(model):
        assert np.array_equal(loaded[name], arr), name
        assert loaded[name].dtype == np.float32


def test_roundtrip_preserves_logits(tmp_path):
    cfg = VARIANTS["Ti"]
    model = build_model(cfg, seed=3)
    x = rand_input(64, seed=4)
    before = model_forward(x, model, cfg)
    path = tmp_path / "w.mvig"
    save_weights(str(path), model)
    after = model_forward(x, load_into_model(str(path), cfg), cfg)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("name", ["Ti", "B"])
def test_skeleton_has_built_names_shapes_and_dtypes_without_draws(monkeypatch, name):
    cfg = VARIANTS[name]
    built = [(n, a.shape, a.dtype) for n, a in named_params(build_model(cfg, 0))]

    def no_draws(*args, **kwargs):
        raise AssertionError("the skeleton asked for random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    skeleton = [(n, a.shape, a.dtype) for n, a in named_params(build_model(cfg, skeleton=True))]
    assert skeleton == built


def test_load_into_model_round_trip_is_bitwise_through_the_skeleton(monkeypatch, tmp_path):
    # the skeleton is built through the module's build_model binding, which
    # the benchmark's tracer wraps to time it
    cfg = VARIANTS["Ti"]
    model = build_model(cfg, seed=5)
    path = tmp_path / "ti.mvig"
    save_weights(str(path), model)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return build_model(*args, **kwargs)

    monkeypatch.setattr(weights_io, "build_model", counted)
    loaded = load_into_model(str(path), cfg)
    assert calls == [{"skeleton": True}]
    pairs = list(zip(named_params(model), named_params(loaded), strict=True))
    for (name, want), (got_name, got) in pairs:
        assert got_name == name
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.mvig"
    path.write_bytes(b"GIVM" + b"\x00" * 64)
    with pytest.raises(WeightsFormatError, match="magic"):
        load_weights(str(path))


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v9.mvig"
    path.write_bytes(MAGIC + struct.pack("<I", 9) + b"\x00" * 16)
    with pytest.raises(WeightsFormatError, match="version"):
        load_weights(str(path))


def test_truncated_file_rejected(tmp_path):
    cfg = VARIANTS["Ti"]
    path = tmp_path / "trunc.mvig"
    save_weights(str(path), build_model(cfg, 0))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(WeightsFormatError, match="truncated"):
        load_weights(str(path))


def test_variant_mismatch_rejected(tmp_path):
    path = tmp_path / "s.mvig"
    save_weights(str(path), build_model(VARIANTS["S"], 0))
    with pytest.raises(WeightsFormatError, match="variant"):
        load_into_model(str(path), VARIANTS["Ti"])


def _write_raw(path, variant, entries):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        nb = variant.encode()
        f.write(struct.pack("<I", len(nb)))
        f.write(nb)
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4").tobytes())


def test_shape_mismatch_rejected(tmp_path):
    cfg = VARIANTS["Ti"]
    entries = list(named_params(build_model(cfg, 0)))
    entries = [(n, a.T if n == "head.fc.weight" else a) for n, a in entries]
    path = tmp_path / "warp.mvig"
    _write_raw(str(path), "Ti", entries)
    with pytest.raises(WeightsFormatError, match="head.fc.weight"):
        load_into_model(str(path), cfg)


def test_missing_entry_rejected(tmp_path):
    cfg = VARIANTS["Ti"]
    entries = list(named_params(build_model(cfg, 0)))[:-1]
    path = tmp_path / "short.mvig"
    _write_raw(str(path), "Ti", entries)
    with pytest.raises(WeightsFormatError, match="entries"):
        load_into_model(str(path), cfg)


def test_repeated_entry_name_rejected(tmp_path):
    cfg = VARIANTS["Ti"]
    entries = list(named_params(build_model(cfg, 0)))
    first_name, first = entries[0]
    entries.append((first_name, first + 1.0))
    path = tmp_path / "twice.mvig"
    _write_raw(str(path), "Ti", entries)
    with pytest.raises(WeightsFormatError, match=f"{first_name!r} appears more than once"):
        load_into_model(str(path), cfg)


def test_trailing_garbage_rejected(tmp_path):
    cfg = VARIANTS["Ti"]
    path = tmp_path / "trail.mvig"
    save_weights(str(path), build_model(cfg, 0))
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(WeightsFormatError, match="trailing"):
        load_weights(str(path))


# a small hand-made file: variant "Ti", entries "a" (2x3) and "b" (4,)
_SMALL_ENTRIES = [("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
                  ("b", np.array([0.5, -1.0, 2.0, 3.5], np.float32))]
_OFF_VARIANT_LEN = 8
_OFF_NAME_LEN = 18    # first entry's name length
_OFF_RANK = 23        # first entry's rank
_OFF_DIM0 = 27        # first entry's first dim
_HUGE = 0xFFFFFFFF


def _small_file(tmp_path):
    path = tmp_path / "small.mvig"
    _write_raw(str(path), "Ti", _SMALL_ENTRIES)
    return path


def _patch_u32(path, offset, value):
    data = bytearray(path.read_bytes())
    data[offset:offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(data))


def test_small_file_layout(tmp_path):
    path = _small_file(tmp_path)
    data = path.read_bytes()
    assert struct.unpack_from("<I", data, _OFF_VARIANT_LEN)[0] == 2
    assert data[_OFF_NAME_LEN + 4:_OFF_RANK] == b"a"
    assert struct.unpack_from("<3I", data, _OFF_RANK) == (2, 2, 3)
    variant, loaded = load_weights(str(path))
    assert variant == "Ti"
    for name, arr in _SMALL_ENTRIES:
        assert np.array_equal(loaded[name], arr)


def test_every_truncation_rejected(tmp_path):
    data = _small_file(tmp_path).read_bytes()
    cut = tmp_path / "cut.mvig"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(WeightsFormatError):
            load_weights(str(cut))


@pytest.mark.parametrize("offset,value", [
    (_OFF_VARIANT_LEN, _HUGE),
    (_OFF_NAME_LEN, _HUGE),
    (_OFF_RANK, _HUGE),
    (_OFF_DIM0, _HUGE),          # dims product of 4 * 3 * (2^32 - 1) bytes
    (_OFF_RANK, 40),             # rank larger than the file
])
def test_oversized_lengths_rejected_before_reading(tmp_path, offset, value):
    path = _small_file(tmp_path)
    _patch_u32(path, offset, value)
    with pytest.raises(WeightsFormatError, match="left"):
        load_weights(str(path))


def test_dims_product_past_int64_rejected(tmp_path):
    path = tmp_path / "wide.mvig"
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", VERSION, 2) + b"Ti" + struct.pack("<I", 1))
        f.write(struct.pack("<I", 1) + b"a" + struct.pack("<4I", 3, _HUGE, _HUGE, _HUGE))
        f.write(b"\x00" * 64)
    with pytest.raises(WeightsFormatError, match="left"):
        load_weights(str(path))


def test_single_bit_flips_load_or_raise_format_error(tmp_path):
    data = _small_file(tmp_path).read_bytes()
    flipped = tmp_path / "flip.mvig"
    for i in range(len(data)):
        for bit in range(8):
            mutated = bytearray(data)
            mutated[i] ^= 1 << bit
            flipped.write_bytes(bytes(mutated))
            try:
                load_weights(str(flipped))
            except WeightsFormatError:
                pass
