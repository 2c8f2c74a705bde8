import ast
import json
import math
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from mobilevig import tensor_core
from mobilevig.tensor_core import (
    _CHUNK,
    _DW_BLOCK,
    _GELU_BLOCK,
    _pad_hw,
    BN_EPS,
    ConvBn,
    ConvSpec,
    batchnorm_infer,
    concat_channels,
    conv2d,
    conv_bn,
    elem_add,
    elem_max,
    elem_sub,
    gelu,
    gelu_grad,
    global_avg_pool,
    linear,
    roll_2d,
)

from helpers import identity_conv_bn


def rand(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------- roll_2d

def test_roll_identity():
    x = rand((2, 3, 4, 5))
    assert np.array_equal(roll_2d(x, 0, 0), x)


def test_roll_hand_checked_wrap():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
    got = roll_2d(x, 1, 0)
    assert got.reshape(2, 2).tolist() == [[3.0, 4.0], [1.0, 2.0]]


def test_roll_full_period():
    x = rand((1, 2, 3, 7), seed=3)
    assert np.array_equal(roll_2d(x, 3, 7), x)


def test_roll_inverse():
    x = rand((2, 2, 5, 6), seed=4)
    h, w = 5, 6
    for a in range(h):
        for b in range(w):
            assert np.array_equal(roll_2d(roll_2d(x, a, b), h - a, w - b), x)


def test_roll_composes_additively():
    x = rand((1, 3, 6, 4), seed=5)
    for a, b, c, d in ((1, 2, 3, 1), (5, 3, 2, 2), (0, 1, 4, 0)):
        lhs = roll_2d(roll_2d(x, a, b), c, d)
        rhs = roll_2d(x, a + c, b + d)
        assert np.array_equal(lhs, rhs)


def test_roll_semantics_index_formula():
    x = rand((1, 1, 4, 3), seed=6)
    down, right = 3, 2
    got = roll_2d(x, down, right)
    for i in range(4):
        for j in range(3):
            assert got[0, 0, i, j] == x[0, 0, (i - down) % 4, (j - right) % 3]


# ----------------------------------------------------------------- conv2d

def test_conv_identity_kernel():
    x = rand((2, 1, 5, 5), seed=7)
    spec = ConvSpec(1, 1, (1, 1))
    out = conv2d(x, spec, np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))
    assert np.array_equal(out, x)


def test_conv_bias_broadcast():
    spec = ConvSpec(2, 3, (3, 3), padding=1)
    x = np.zeros((1, 2, 4, 4), np.float32)
    bias = np.array([1.0, -2.0, 0.5], np.float32)
    out = conv2d(x, spec, np.ones(spec.weight_shape(), np.float32), bias)
    for c in range(3):
        assert np.all(out[:, c] == bias[c])


def test_conv_3x3_ones_sliding_sums():
    # 3x3 ones input, 3x3 ones kernel, padding 1: valid taps per position
    x = np.ones((1, 1, 3, 3), np.float32)
    spec = ConvSpec(1, 1, (3, 3), stride=1, padding=1)
    out = conv2d(x, spec, np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
    assert np.array_equal(out[0, 0], expected)


def test_conv_matches_direct_loop_reference():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 6, 5)).astype(np.float32)
    spec = ConvSpec(3, 4, (3, 3), stride=2, padding=1)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    got = conv2d(x, spec, w, b)

    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))).astype(np.float64)
    oh, ow = spec.out_size(6, 5)
    want = np.zeros((2, 4, oh, ow))
    for n in range(2):
        for oc in range(4):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(3):
                        for ky in range(3):
                            for kx in range(3):
                                acc += float(w[oc, ic, ky, kx]) * xp[n, ic, oy * 2 + ky, ox * 2 + kx]
                    want[n, oc, oy, ox] = acc + float(b[oc])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("h,w,k,s,p,oh,ow", [
    (7, 7, 3, 2, 1, 4, 4),
    (8, 8, 3, 2, 1, 4, 4),
    (5, 9, 1, 1, 0, 5, 9),
    (4, 4, 3, 1, 1, 4, 4),
])
def test_conv_output_size(h, w, k, s, p, oh, ow):
    spec = ConvSpec(1, 2, (k, k), stride=s, padding=p)
    x = rand((1, 1, h, w), seed=9)
    wgt = rand(spec.weight_shape(), seed=10)
    out = conv2d(x, spec, wgt, np.zeros(2, np.float32))
    assert out.shape == (1, 2, oh, ow)


def test_depthwise_equals_independent_single_channel_convs():
    rng = np.random.default_rng(11)
    c = 5
    x = rng.standard_normal((2, c, 6, 7)).astype(np.float32)
    spec = ConvSpec(c, c, (3, 3), stride=1, padding=1, groups=c)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(c).astype(np.float32)
    full = conv2d(x, spec, w, b)
    single = ConvSpec(1, 1, (3, 3), stride=1, padding=1)
    for ch in range(c):
        part = conv2d(x[:, ch:ch + 1], single, w[ch:ch + 1], b[ch:ch + 1])
        assert np.array_equal(full[:, ch:ch + 1], part)


def test_conv_rerun_is_bitwise_deterministic():
    x = rand((2, 8, 9, 9), seed=12)
    spec = ConvSpec(8, 16, (3, 3), padding=1)
    w = rand(spec.weight_shape(), seed=13)
    b = rand((16,), seed=14)
    assert np.array_equal(conv2d(x, spec, w, b), conv2d(x, spec, w, b))


def test_conv_shape_errors():
    x = rand((1, 3, 4, 4))
    spec = ConvSpec(4, 2, (1, 1))
    with pytest.raises(ValueError):
        conv2d(x, spec, rand(spec.weight_shape()), np.zeros(2, np.float32))
    spec3 = ConvSpec(3, 2, (1, 1))
    with pytest.raises(ValueError):
        conv2d(x, spec3, rand((2, 3, 3, 3)), np.zeros(2, np.float32))
    with pytest.raises(ValueError):
        ConvSpec(3, 2, (1, 1), groups=2)  # in_channels not divisible


def test_conv_rejects_grouped_conv_that_is_not_depthwise():
    spec = ConvSpec(4, 8, (1, 1), groups=2)
    with pytest.raises(ValueError, match="groups=2"):
        conv2d(rand((1, 4, 3, 3)), spec, rand(spec.weight_shape()), np.zeros(8, np.float32))


def test_conv_rejects_strided_depthwise_conv():
    spec = ConvSpec(4, 4, (3, 3), stride=2, padding=1, groups=4)
    with pytest.raises(ValueError, match="stride=2"):
        conv2d(rand((1, 4, 8, 8)), spec, rand(spec.weight_shape()), np.zeros(4, np.float32))


# Pixel grids below, at and above the GEMM chunk width, and not multiples of it.
_INVARIANCE_GRIDS = [(5, 7), (8, 8), (9, 11), (16, 20)]
_INVARIANCE_SPECS = [ConvSpec(96, 40, (1, 1)),
                     ConvSpec(24, 36, (3, 3), stride=2, padding=1)]


def _out_pixels(h, w, spec):
    oh, ow = spec.out_size(h, w)
    return oh * ow


def test_invariance_grids_straddle_the_chunk_width():
    counts = {_out_pixels(h, w, spec) for h, w in _INVARIANCE_GRIDS
              for spec in _INVARIANCE_SPECS}
    assert min(counts) < _CHUNK and _CHUNK in counts
    assert any(n > _CHUNK and n % _CHUNK for n in counts)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec", _INVARIANCE_SPECS, ids=["1x1", "3x3s2p1"])
@pytest.mark.parametrize("h,w", _INVARIANCE_GRIDS)
def test_dense_conv_bitwise_under_sub_batching(h, w, spec, dtype):
    # a batch of five runs its images' chunks, and their tails, in shared
    # batched GEMMs: each image alone and a 2 + 3 split give the same bits
    rng = np.random.default_rng([h, w, spec.kernel[0]])
    x = rng.standard_normal((5, spec.in_channels, h, w)).astype(dtype)
    wgt = rng.standard_normal(spec.weight_shape()).astype(dtype)
    b = rng.standard_normal(spec.out_channels).astype(dtype)
    whole = conv2d(x, spec, wgt, b)
    for lo, hi in [(i, i + 1) for i in range(5)] + [(0, 2), (2, 5)]:
        assert np.array_equal(conv2d(x[lo:hi], spec, wgt, b), whole[lo:hi])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,w", _INVARIANCE_GRIDS[:-1])
def test_dense_1x1_conv_bitwise_on_pixel_subsets(h, w, dtype):
    # a 1x1 conv commutes with cropping: the pixels of a crop give the same
    # bits alone as inside the larger image
    spec = _INVARIANCE_SPECS[0]
    big_h, big_w = _INVARIANCE_GRIDS[-1]
    rng = np.random.default_rng([h, w, 1])
    x = rng.standard_normal((1, spec.in_channels, big_h, big_w)).astype(dtype)
    wgt = rng.standard_normal(spec.weight_shape()).astype(dtype)
    b = rng.standard_normal(spec.out_channels).astype(dtype)
    crop = np.ascontiguousarray(x[:, :, 3:3 + h, 5:5 + w])
    assert np.array_equal(conv2d(crop, spec, wgt, b),
                          conv2d(x, spec, wgt, b)[:, :, 3:3 + h, 5:5 + w])


# a single output channel takes _gemm_chunked's elementwise branch: BLAS
# would run it as a matrix-vector product, whose order depends on the pixel
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,w,spec", [
    pytest.param(h, w, spec, id=f"{h}-{w}{suffix}")
    for spec, suffix in ((_INVARIANCE_SPECS[0], ""), (ConvSpec(96, 1, (1, 1)), "-oc1"))
    for h, w in _INVARIANCE_GRIDS])
def test_dense_1x1_conv_bitwise_under_pixel_permutation(h, w, spec, dtype):
    rng = np.random.default_rng([h, w])
    x = rng.standard_normal((1, spec.in_channels, h, w)).astype(dtype)
    wgt = rng.standard_normal(spec.weight_shape()).astype(dtype)
    b = rng.standard_normal(spec.out_channels).astype(dtype)
    perm = rng.permutation(h * w)
    flat = conv2d(x, spec, wgt, b).reshape(spec.out_channels, -1)
    moved = conv2d(x.reshape(spec.in_channels, -1)[:, perm].reshape(x.shape), spec, wgt, b)
    assert np.array_equal(moved.reshape(spec.out_channels, -1), flat[:, perm])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,w", _INVARIANCE_GRIDS)
def test_dense_3x3_conv_bitwise_under_pixel_permutation(h, w, dtype):
    # a stride-2 conv sees the image through windows; permuting whole
    # windows (each output pixel's 3x3 receptive field, as a column of the
    # unfolded input) must permute the outputs and nothing else
    spec = _INVARIANCE_SPECS[1]
    rng = np.random.default_rng([h, w, 3])
    x = rng.standard_normal((1, spec.in_channels, h, w)).astype(dtype)
    wgt = rng.standard_normal(spec.weight_shape()).astype(dtype)
    b = rng.standard_normal(spec.out_channels).astype(dtype)
    oh, ow = spec.out_size(h, w)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    # lay each window out as its own 3x3 tile of a (3*oh) x (3*ow) image, so a
    # 3x3 stride-3 conv over the tiles computes the same outputs
    tiles = np.stack([np.stack([xp[0, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                                for j in range(ow)]) for i in range(oh)])
    perm = rng.permutation(oh * ow)
    tiles = tiles.reshape(oh * ow, spec.in_channels, 3, 3)[perm].reshape(
        oh, ow, spec.in_channels, 3, 3)
    tiled = tiles.transpose(2, 0, 3, 1, 4).reshape(1, spec.in_channels, 3 * oh, 3 * ow)
    tile_spec = ConvSpec(spec.in_channels, spec.out_channels, (3, 3), stride=3)
    moved = conv2d(np.ascontiguousarray(tiled), tile_spec, wgt, b)
    flat = conv2d(x, spec, wgt, b).reshape(spec.out_channels, -1)
    assert np.array_equal(moved.reshape(spec.out_channels, -1), flat[:, perm])


def test_dense_conv_bitwise_with_two_blas_threads(run_with_blas_threads):
    # the layers here are large enough for a multi-threaded BLAS to split
    # each chunk's GEMM across threads; sub-batching and cropping must still
    # give the same bits
    out = run_with_blas_threads("""
import numpy as np
from mobilevig.tensor_core import ConvSpec, conv2d

rng = np.random.default_rng(7)
for spec, h, w in ((ConvSpec(256, 128, (1, 1)), 20, 19),
                   (ConvSpec(64, 96, (3, 3), stride=2, padding=1), 30, 27)):
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, spec.in_channels, h, w)).astype(dtype)
        wgt = rng.standard_normal(spec.weight_shape()).astype(dtype)
        b = rng.standard_normal(spec.out_channels).astype(dtype)
        both = conv2d(x, spec, wgt, b)
        for i in range(2):
            assert np.array_equal(conv2d(x[i:i + 1], spec, wgt, b), both[i:i + 1])
        if spec.kernel == (1, 1):
            crop = np.ascontiguousarray(x[:1, :, 2:13, 1:8])
            assert np.array_equal(conv2d(crop, spec, wgt, b), both[:1, :, 2:13, 1:8])
print("ok")
""", threads=2)
    assert out.strip() == "ok"


_FORWARD_AND_KNN_BITS = """
import hashlib
import numpy as np
from mobilevig.arch import VARIANTS, build_model, model_forward_with_stages
from mobilevig.knn import knn_graph

cfg = VARIANTS["Ti"]
weights = build_model(cfg, 0)
x = np.random.default_rng(3).standard_normal((2, 3, 64, 64))
for dtype in (np.float32, np.float64):
    logits, stages = model_forward_with_stages(x.astype(dtype), weights, cfg)
    assert len(stages) == 4
    for a in (logits, *stages):
        print(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
f = np.random.default_rng(4).standard_normal((2, 256, 14, 14)).astype(np.float32)
print(hashlib.sha256(knn_graph(f, 9).neighbor_idx.tobytes()).hexdigest())
"""


def test_forward_and_knn_bits_do_not_depend_on_blas_threads(run_with_blas_threads):
    # a threaded OpenBLAS splits a long reduction differently (Ti's stage-3
    # downsample GEMM reduces over 756 terms); the package's GEMMs run at one
    # thread whatever the caller's count
    one = run_with_blas_threads(_FORWARD_AND_KNN_BITS, threads=1).split()
    two = run_with_blas_threads(_FORWARD_AND_KNN_BITS, threads=2).split()
    assert len(one) == 11
    assert one == two


def test_blas_calls_restore_the_callers_thread_count(run_with_blas_threads):
    out = run_with_blas_threads("""
import json
import numpy as np
from mobilevig.arch import VARIANTS, build_model, model_forward
from mobilevig.knn import knn_graph
from mobilevig.tensor_core import _matmul, _openblas

def counts():
    return [get() for _, get, _ in _openblas()]

seen = [counts()]
cfg = VARIANTS["Ti"]
x = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32)
model_forward(x, build_model(cfg, 0), cfg)
seen.append(counts())
knn_graph(np.random.default_rng(1).standard_normal((1, 256, 14, 14)), 9)
seen.append(counts())
try:
    _matmul(np.ones((2, 3)), np.ones((2, 3)))
except ValueError:
    seen.append(counts())
print(json.dumps(seen))
""", threads=2)
    before, *after = json.loads(out)
    if not before:
        pytest.skip("no OpenBLAS in this process: nothing is pinned")
    assert before == [2] * len(before)
    assert after == [before] * 3


def test_openblas_at_a_path_with_a_space_is_found(run_with_blas_threads, tmp_path):
    # /proc/self/maps gives the pathname as everything after the fifth field,
    # spaces included. The library is copied: a hard link would map under
    # the path it was first loaded from
    out = run_with_blas_threads(f"""
import ctypes
import shutil
from pathlib import Path
import numpy as np
from mobilevig.arch import VARIANTS, build_model, model_forward
from mobilevig.tensor_core import _openblas

with open("/proc/self/maps") as f:
    libs = sorted({{line.split(maxsplit=5)[-1] for line in f.read().splitlines()
                   if "openblas" in line.lower() and ".so" in line}})
if not libs:
    print("no OpenBLAS")
    raise SystemExit
copy = Path({str(tmp_path)!r}) / "with space" / ("copy of " + Path(libs[0]).name)
copy.parent.mkdir()
shutil.copyfile(libs[0], copy)
ctypes.CDLL(str(copy))
assert copy.name in [name for name, _, _ in _openblas()]
cfg = VARIANTS["Ti"]
x = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32)
assert np.all(np.isfinite(model_forward(x, build_model(cfg, 0), cfg)))
print("ok")
""", threads=1)
    if out.strip() == "no OpenBLAS":
        pytest.skip("no OpenBLAS in this process: nothing is pinned")
    assert out.strip() == "ok"


def test_openblas_whose_file_was_deleted_is_found(run_with_blas_threads, tmp_path):
    # a mapped file deleted before the lookup reads "<path> (deleted)" in
    # /proc/self/maps; the library is opened through /proc/self/map_files,
    # which gives back the copy already loaded and maps no second one
    out = run_with_blas_threads(f"""
import ctypes
import shutil
from pathlib import Path
import numpy as np
from mobilevig.arch import VARIANTS, build_model, model_forward
from mobilevig.tensor_core import _openblas

def mapped():
    with open("/proc/self/maps") as f:
        return [line for line in f.read().splitlines()
                if "openblas" in line.lower() and ".so" in line]

libs = sorted({{line.split(maxsplit=5)[-1] for line in mapped()}})
if not libs:
    print("no OpenBLAS")
    raise SystemExit
copy = Path({str(tmp_path)!r}) / ("copy-" + Path(libs[0]).name)
shutil.copyfile(libs[0], copy)
ctypes.CDLL(str(copy))
copy.unlink()
before = mapped()
assert any(line.endswith(" (deleted)") for line in before)
assert copy.name in [name for name, _, _ in _openblas()]
assert mapped() == before
cfg = VARIANTS["Ti"]
x = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32)
assert np.all(np.isfinite(model_forward(x, build_model(cfg, 0), cfg)))
print("ok")
""", threads=1)
    if out.strip() == "no OpenBLAS":
        pytest.skip("no OpenBLAS in this process: nothing is pinned")
    assert out.strip() == "ok"


def _random_conv_bn(spec, dtype, seed):
    rng = np.random.default_rng(seed)
    c = spec.out_channels
    return ConvBn(
        spec=spec,
        weight=rng.normal(0.0, 0.4, spec.weight_shape()).astype(dtype),
        bias=rng.normal(0.0, 0.1, c).astype(dtype),
        gamma=rng.uniform(0.5, 1.5, c).astype(dtype),
        beta=rng.normal(0.0, 0.2, c).astype(dtype),
        mean=rng.normal(0.0, 0.2, c).astype(dtype),
        var=rng.uniform(0.5, 1.5, c).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec", [ConvSpec(6, 10, (1, 1)),
                                  ConvSpec(5, 9, (3, 3), stride=2, padding=1),
                                  ConvSpec(8, 8, (3, 3), padding=1, groups=8)],
                         ids=["1x1", "3x3s2p1", "depthwise"])
def test_conv_bn_matches_conv_then_batchnorm(spec, dtype):
    p = _random_conv_bn(spec, dtype, 31)
    x = rand((2, spec.in_channels, 9, 11), seed=32, dtype=dtype)
    got = conv_bn(x, p)
    want = batchnorm_infer(conv2d(x, spec, p.weight, p.bias),
                           p.gamma, p.beta, p.mean, p.var, BN_EPS)
    assert got.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * float(np.abs(want).max()))


def test_conv_bn_follows_in_place_weight_changes():
    spec = ConvSpec(4, 6, (1, 1))
    p = _random_conv_bn(spec, np.float64, 33)
    x = rand((1, 4, 5, 5), seed=34, dtype=np.float64)
    before = conv_bn(x, p)
    p.weight[0, 0, 0, 0] += 1.0
    p.gamma[1] *= 2.0
    after = conv_bn(x, p)
    want = batchnorm_infer(conv2d(x, spec, p.weight, p.bias),
                           p.gamma, p.beta, p.mean, p.var, BN_EPS)
    assert not np.array_equal(before, after)
    np.testing.assert_allclose(after, want, rtol=1e-12, atol=1e-12)


def test_conv_bn_rejects_bad_parameters():
    spec = ConvSpec(4, 6, (1, 1))
    x = rand((1, 4, 3, 3), seed=35)
    p = _random_conv_bn(spec, np.float32, 36)
    p.var[2] = -1.0
    with pytest.raises(ValueError, match="var"):
        conv_bn(x, p)
    p = _random_conv_bn(spec, np.float32, 36)
    p.weight = p.weight[:1]
    with pytest.raises(ValueError, match="weight"):
        conv_bn(x, p)


# ---------------------------------------------------------------- batchnorm

def test_batchnorm_identity():
    x = rand((2, 3, 4, 4), seed=15)
    one = np.ones(3, np.float32)
    zero = np.zeros(3, np.float32)
    out = batchnorm_infer(x, one, zero, zero, one, eps=0.0)
    assert np.array_equal(out, x)


def test_batchnorm_gamma_zero_gives_beta():
    x = rand((1, 2, 3, 3), seed=16)
    beta = np.array([4.0, -1.0], np.float32)
    out = batchnorm_infer(x, np.zeros(2, np.float32), beta,
                          np.zeros(2, np.float32), np.ones(2, np.float32))
    for c in range(2):
        assert np.all(out[:, c] == beta[c])


def test_batchnorm_scalar_formula():
    # (2 - 2) / sqrt(4) * 3 + 1 = 1
    x = np.full((1, 1, 1, 1), 2.0, np.float32)
    out = batchnorm_infer(x, np.array([3.0], np.float32), np.array([1.0], np.float32),
                          np.array([2.0], np.float32), np.array([4.0], np.float32), eps=0.0)
    assert out.item() == 1.0


def test_batchnorm_negative_var_rejected():
    x = rand((1, 1, 2, 2))
    one = np.ones(1, np.float32)
    with pytest.raises(ValueError):
        batchnorm_infer(x, one, one, one, np.array([-0.5], np.float32))


# -------------------------------------------------------------------- gelu

def test_gelu_anchor_values():
    z = np.array([0.0], np.float32)
    assert gelu(z).item() == 0.0
    assert abs(gelu(np.array([10.0], np.float32)).item() - 10.0) < 1e-6
    assert abs(gelu(np.array([-10.0], np.float32)).item()) < 1e-6


def test_gelu_matches_scalar_erf_reference():
    x = rand((64,), seed=17, dtype=np.float64).reshape(1, 1, 8, 8)
    got = gelu(x)
    for v, g in zip(x.ravel(), got.ravel()):
        ref = v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
        assert abs(g - ref) < 1e-12


_math_erf = np.frompyfunc(math.erf, 1, 1)


def _gelu_float64_reference(x):
    # math.erf per element: independent of the package's own float64 erf
    x64 = np.asarray(x, dtype=np.float64)
    return x64 * (0.5 * (1.0 + _math_erf(x64 / math.sqrt(2.0)).astype(np.float64)))


def test_gelu_float32_dense_sweep_error_bound():
    x = np.concatenate([
        np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32),
        np.array([10.0, -10.0, 1e30, -1e30, 0.0], np.float32),
    ])
    got = gelu(x)
    assert got.dtype == np.float32
    assert np.all(np.isfinite(got))
    err = np.max(np.abs(got.astype(np.float64) - _gelu_float64_reference(x)))
    assert err <= 2e-6, f"max abs error {err}"
    assert gelu(np.zeros(1, np.float32)).item() == 0.0


def test_gelu_float32_exhaustive_over_the_binade_4_to_8():
    # every float32 with 4 <= |x| < 8, both signs (2^24 values, in chunks of
    # 2^20), against the float64 gelu of the same inputs; the worst error is
    # 9.4025e-7, at x = 4.7988973, a value the sweep above never sees
    worst = 0.0
    for sign in (0, 0x80000000):
        for start in range(0x40800000, 0x41000000, 1 << 20):
            bits = np.arange(start, start + (1 << 20), dtype=np.uint32) | np.uint32(sign)
            x = bits.view(np.float32)
            err = np.abs(gelu(x).astype(np.float64) - gelu(x.astype(np.float64)))
            worst = max(worst, float(err.max()))
    assert worst <= 2e-6, f"max abs error {worst}"


def test_gelu_float32_bitwise_under_repacking():
    # spans three block boundaries of the blocked float32 kernel
    block = tensor_core._GELU_BLOCK
    m = 3 * block // 5 + 4  # per item: the five hold 16 to 20 more than 3 * block
    x = (rand((5 * m,), seed=24) * 4.0).reshape(5, 1, 1, m)
    whole = gelu(x)
    flat = x.reshape(-1)
    n = flat.size
    cuts = [0, 1, block - 5, block + 5, 2 * block, 2 * block + 1, 3 * block - 8, n]
    pieces = np.concatenate([gelu(flat[a:b]) for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(pieces, whole.reshape(-1))
    per_item = np.concatenate([gelu(x[i:i + 1]) for i in range(x.shape[0])])
    assert np.array_equal(per_item, whole)


def test_gelu_float64_bitwise_under_repacking():
    # spans three block boundaries of the blocked float64 erf; magnitudes
    # cycle through its three ranges and the clamp (x / sqrt 2 up to 0.46875,
    # 4, 6 and beyond), so every piece below holds each of them
    block = tensor_core._ERF_BLOCK
    m = 3 * block // 5 + 4
    rng = np.random.default_rng(28)
    edges = np.sqrt(2.0) * np.array([0.0, 0.46875, 4.0, 6.0, 30.0])
    cycle = np.arange(5 * m) % 4
    mag = rng.uniform(edges[cycle], edges[cycle + 1])
    x = (mag * rng.choice([-1.0, 1.0], size=mag.size)).reshape(5, 1, 1, m)
    flat = x.reshape(-1)
    cuts = [0, 4, block - 5, block + 5, 2 * block, 2 * block + 4, 3 * block - 8, flat.size]
    for fn in (gelu, gelu_grad):
        whole = fn(x)
        pieces = np.concatenate([fn(flat[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert np.array_equal(pieces, whole.reshape(-1))
        per_item = np.concatenate([fn(x[i:i + 1]) for i in range(x.shape[0])])
        assert np.array_equal(per_item, whole)


def _erf_test_points():
    # a dense sweep of [-8, 8], tails to 40, each range edge and clamp with
    # its two neighbours, subnormals, zero and 1e300; both signs
    edges = [np.nextafter(e, d) for e in (0.46875, 4.0, 6.0) for d in (0.0, e, np.inf)]
    sub = np.finfo(np.float64).smallest_subnormal
    x = np.concatenate([
        np.linspace(-8.0, 8.0, 1_600_001), np.linspace(8.0, 40.0, 3201), edges,
        [sub, 3 * sub, 1e-310, np.finfo(np.float64).tiny, 1e-300, 1e300, 0.0]])
    return np.concatenate([x, -x])


def _quiet(fn, x):
    # underflow is allowed: a subnormal input's square underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(x)


def test_float64_erf_within_8_ulp_of_math_erf(assert_bitwise):
    # the largest error measured is 6 ulp, just above the 0.46875 edge where
    # erf = 1 - erfc cancels (4 M random points there); the bound leaves
    # 2 ulp of margin for math.erf's own rounding
    x = _erf_test_points()
    got = _quiet(tensor_core._erf, x)
    want = _math_erf(x).astype(np.float64)
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 8, f"{ulps.max()} ulp at x = {x[ulps.argmax()]!r}"
    assert_bitwise(tensor_core._erf(-x), -got)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    assert_bitwise(_quiet(tensor_core._erf, special), np.array([0.0, -0.0, 1.0, -1.0, np.nan]))


def test_float64_phi_within_4_half_ulps_of_one_of_math_erf():
    # Phi = 0.5 * (1 + erf(x / sqrt 2)); the largest error measured is
    # 2 * 2^-53, the bound 4 * 2^-53
    x = _erf_test_points()
    got = _quiet(tensor_core._phi, x)
    u = x * tensor_core._INV_SQRT2
    want = 0.5 * (1.0 + _math_erf(u).astype(np.float64))
    err = np.abs(got - want)
    assert err.max() <= 4 * 2.0 ** -53, f"{err.max()} at x = {x[err.argmax()]!r}"
    limits = _quiet(tensor_core._phi, np.array([np.inf, -np.inf, np.nan, -40.0, 40.0]))
    assert np.array_equal(limits, [1.0, 0.0, np.nan, 0.0, 1.0], equal_nan=True)


def test_gelu_float32_saturates_exactly_beyond_the_clamp(assert_bitwise):
    # Phi is exactly 1 from S up and exactly 0 from -S down
    sat = np.float32(tensor_core._GELU_SAT)
    assert float(sat) == tensor_core._GELU_SAT
    big = np.array([sat, np.nextafter(sat, np.float32(np.inf)), 10.0, 1e30,
                    np.finfo(np.float32).max], np.float32)
    assert_bitwise(gelu(big), big)
    assert_bitwise(gelu(-big), np.full(big.shape, -0.0, np.float32))


def test_gelu_float32_saturation_rests_on_numpy_tanh():
    # the kernel's exact saturation needs float32 np.tanh to be exactly +-1
    # from 10 on, and tanh's argument xl * g(32) to reach 10 at +-S
    u = np.array([10.0, -10.0, 1e30, -np.inf], np.float32)
    assert np.array_equal(np.tanh(u), [1.0, -1.0, 1.0, -1.0])
    t = np.full(2, tensor_core._GELU_T_MAX, np.float32)
    g = np.full(2, tensor_core._GELU_G[0], np.float32) * t
    for c in tensor_core._GELU_G[1:-1]:
        g = (g + c) * t
    g += tensor_core._GELU_G[-1]
    u = np.array([tensor_core._GELU_SAT, -tensor_core._GELU_SAT], np.float32) * g
    assert np.all(np.abs(u) >= 10.0), u


def test_fit_gelu_reproduces_the_kernel_constants(run_with_blas_threads):
    # the tool repoints tensor_core's constants while it fits, so it runs in
    # a process of its own
    tool = Path(__file__).resolve().parents[1] / "tools" / "fit_gelu.py"
    out = run_with_blas_threads(
        f"import runpy; runpy.run_path({str(tool)!r}, run_name='__main__')", 1)
    printed = dict(line.split(": ", 1) for line in out.splitlines())
    g_line = next(v for name, v in printed.items() if name.startswith("g "))
    assert ast.literal_eval(g_line) == tuple(float(v) for v in tensor_core._GELU_G)
    assert float(printed["saturation S"]) == tensor_core._GELU_SAT


def test_fit_gelu_walk_checks_the_blocks_around_s_and_inf():
    # the --exhaustive walk over the blocks holding +-S and +-inf (with the
    # NaN payloads): every class checked is present and none fails
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "fit_gelu.py"))
    sat = np.float32(tensor_core._GELU_SAT)
    edges = np.array([sat, -sat, np.inf, -np.inf], np.float32).view(np.uint32)
    report = tool["walk"](sorted({int(b) // tool["WALK_BLOCK"] for b in edges}))
    assert all(n > 0 and bad == 0 for n, bad in report["counts"].values()), report
    assert report["worst"] <= 2e-6, report


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_non_finite_inputs_give_limits_quietly(dtype, assert_bitwise):
    # tiny inputs too, whose squares (float32) or erf's y * y (float64) underflow
    big = np.finfo(dtype).max
    tiny = [1e-30, -1e-30] if dtype == np.float32 else [1e-200, 1e-320, -1e-320]
    x = np.array([np.inf, -np.inf, np.nan, big, -big, 1.5, -2.0, *tiny], dtype)
    with np.errstate(all="raise"):
        got = gelu(x)
    assert_bitwise(got[:5], np.array([np.inf, -0.0, np.nan, big, -0.0], dtype))
    assert_bitwise(got[5:], gelu(x[5:]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_grad_gives_its_limits_quietly(dtype, assert_bitwise):
    # phi underflows to 0 for large |x| by design; only overflow and
    # invalid operations (x * x, inf * 0) are errors here
    big = 1e200 if dtype == np.float64 else 1e30  # x * x overflows either way
    x = np.array([np.inf, -np.inf, big, -big, np.nan], dtype)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = gelu_grad(x)
    assert_bitwise(got, np.array([1.0, 0.0, 1.0, 0.0, np.nan], dtype))


# ------------------------------------------- in-place kernels vs allocating

def _depthwise_allocating(x, weight, bias, stride, padding):
    # the allocating tap sum the in-place kernel must reproduce bitwise
    c, _, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[2] + 2 * padding - kh) // stride + 1
    ow = (x.shape[3] + 2 * padding - kw) // stride + 1
    acc = None
    for ky in range(kh):
        for kx in range(kw):
            tap = xp[:, :, ky:ky + (oh - 1) * stride + 1:stride,
                     kx:kx + (ow - 1) * stride + 1:stride]
            term = tap * weight[:, 0, ky, kx].reshape(1, c, 1, 1)
            acc = term if acc is None else acc + term
    return acc + bias.reshape(1, c, 1, 1)


@pytest.mark.parametrize("stride,padding", [(1, 1)])
def test_depthwise_in_place_matches_allocating_bitwise(stride, padding):
    c = 6
    x = rand((2, c, 9, 8), seed=25)
    spec = ConvSpec(c, c, (3, 3), stride=stride, padding=padding, groups=c)
    w = rand(spec.weight_shape(), seed=26)
    b = rand((c,), seed=27)
    x0, w0, b0 = x.copy(), w.copy(), b.copy()
    got = conv2d(x, spec, w, b)
    assert np.array_equal(got, _depthwise_allocating(x, w, b, stride, padding))
    assert np.array_equal(x, x0) and np.array_equal(w, w0) and np.array_equal(b, b0)


# Channel blocks of the depthwise conv: the block constant sets how many
# channels share one pass over the taps and must change no bit. A constant
# of 1 gives one channel per block, 37 one channel on the large maps and
# 2 to 5 on the small ones; the large maps hold more than one default block.
_DW_SHAPES = [(2, 200, 40, 38), (2, 5, 3, 4)]
_DW_BLOCKS = [1, 37, _DW_BLOCK]


def _depthwise_case(shape, stride, padding, dtype, seed=30):
    n, c, h, w = shape
    spec = ConvSpec(c, c, (3, 3), stride=stride, padding=padding, groups=c)
    rng = np.random.default_rng([seed, c, h, w])
    x = rng.standard_normal(shape).astype(dtype)
    wgt = rng.standard_normal(spec.weight_shape()).astype(dtype)
    b = rng.standard_normal(c).astype(dtype)
    return spec, x, wgt, b


def test_depthwise_large_maps_span_several_default_blocks():
    n, c, h, w = _DW_SHAPES[0]
    oh, ow = ConvSpec(c, c, (3, 3), 1, 1, groups=c).out_size(h, w)
    assert c * oh * ow > _DW_BLOCK


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1)])
@pytest.mark.parametrize("shape", _DW_SHAPES, ids=["large", "small"])
def test_depthwise_channel_blocks_match_allocating_bitwise(monkeypatch, shape, stride,
                                                          padding, dtype):
    spec, x, wgt, b = _depthwise_case(shape, stride, padding, dtype)
    saved = [a.copy() for a in (x, wgt, b)]
    want = _depthwise_allocating(x, wgt, b, stride, padding)
    for block in _DW_BLOCKS:
        monkeypatch.setattr(tensor_core, "_DW_BLOCK", block)
        got = conv2d(x, spec, wgt, b)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert np.array_equal(got, want), block
    for before, after in zip(saved, (x, wgt, b)):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_bitwise_under_sub_batching_and_crops(dtype):
    # stride 1 over several default blocks: an image alone, a channel range
    # and a crop (padding 0 on the crop, 1 on the whole map) give the same
    # bits as inside the whole batch, though each splits into other blocks
    spec, x, wgt, b = _depthwise_case(_DW_SHAPES[0], 1, 1, dtype, seed=31)
    whole = conv2d(x, spec, wgt, b)
    for i in range(x.shape[0]):
        assert np.array_equal(conv2d(x[i:i + 1], spec, wgt, b), whole[i:i + 1])
    lo, hi = 17, 150
    part = ConvSpec(hi - lo, hi - lo, (3, 3), padding=1, groups=hi - lo)
    assert np.array_equal(conv2d(x[:, lo:hi], part, wgt[lo:hi], b[lo:hi]),
                          whole[:, lo:hi])
    valid = ConvSpec(spec.in_channels, spec.out_channels, (3, 3), groups=spec.groups)
    crop = x[:, :, 5:30, 3:24]
    assert np.array_equal(conv2d(crop, valid, wgt, b), whole[:, :, 6:29, 4:23])


def test_depthwise_restores_the_callers_ufunc_buffer_size():
    spec, x, wgt, b = _depthwise_case(_DW_SHAPES[1], 1, 1, np.float32)
    oh, ow = spec.out_size(*x.shape[2:])
    saved = np.setbufsize(4096)
    try:
        conv2d(x, spec, wgt, b)
        assert np.getbufsize() == 4096
        # a bias one channel short fails inside the kernel's loop
        with pytest.raises(ValueError):
            tensor_core._conv_depthwise(x, wgt, b[:-1], 1, oh, ow)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(saved)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_pad_hw_matches_np_pad_bitwise(p, dtype):
    x = rand((2, 3, 4, 5), seed=32, dtype=dtype)
    x[0, 0, 0, 0] = -0.0
    x[1, 2, 3, 4] = np.nan
    got = _pad_hw(x, p)
    want = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_batchnorm_in_place_matches_allocating_bitwise():
    c = 5
    x = rand((2, c, 4, 6), seed=28)
    rng = np.random.default_rng(29)
    gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
    beta = rng.normal(0.0, 0.2, c).astype(np.float32)
    mean = rng.normal(0.0, 0.2, c).astype(np.float32)
    var = rng.uniform(0.5, 1.5, c).astype(np.float32)
    saved = [a.copy() for a in (x, gamma, beta, mean, var)]
    got = batchnorm_infer(x, gamma, beta, mean, var, eps=1e-5)
    scale = (gamma / np.sqrt(var + 1e-5)).astype(np.float32).reshape(1, c, 1, 1)
    want = (x - mean.reshape(1, c, 1, 1)) * scale + beta.reshape(1, c, 1, 1)
    assert np.array_equal(got, want)
    for before, after in zip(saved, (x, gamma, beta, mean, var)):
        assert np.array_equal(before, after)


# ------------------------------------------------------------ out= forms
# gelu, elem_add and the depthwise conv_bn write into out with the pure
# call's bits, zero signs included; out may be the input itself

def _gelu_specials(dtype):
    # +-0, +-inf, NaN, subnormals, +-S and values around it, then enough
    # seeded normals to fill several of the kernels' blocks
    sat = float(np.float32(tensor_core._GELU_SAT))
    sub = np.finfo(dtype).smallest_subnormal
    big = np.finfo(dtype).max
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, sub, -sub, 7 * sub, -7 * sub,
                        np.finfo(dtype).smallest_normal / 3, sat, -sat,
                        np.nextafter(sat, 0.0), -np.nextafter(sat, 0.0), big, -big], dtype)
    x = rand((2 * _GELU_BLOCK + 1001,), seed=40, dtype=dtype) * 4
    x[::4099][:special.size] = special
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_out_matches_the_pure_call_bitwise(dtype, assert_bitwise):
    x = _gelu_specials(dtype)
    with np.errstate(all="raise"):
        want = gelu(x)
        into = np.empty_like(x)
        assert gelu(x, out=into) is into
        assert gelu(x, out=x) is x
    assert_bitwise(into, want)
    assert_bitwise(x, want)


def _dw_conv_bn(c, kernel, padding, dtype, seed):
    # a depthwise ConvBn with a batch norm that is not the identity, and
    # weights of small integers with zeros, so that outputs tie at +-0
    rng = np.random.default_rng([seed, c])
    spec = ConvSpec(c, c, kernel, padding=padding, groups=c)
    weight = rng.integers(-2, 3, size=spec.weight_shape()).astype(dtype)
    bias = rng.integers(-2, 3, size=c).astype(dtype)
    return ConvBn(spec, weight, bias, gamma=rng.uniform(0.5, 2, c), beta=rng.normal(0, 0.1, c),
                  mean=rng.normal(0, 0.1, c), var=rng.uniform(0.5, 2, c))


# per map size, a channel count whose image spans more than one block
_DW_OUT_SIZES = {56: 24, 14: 400, 7: 1900}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,padding", [((3, 3), 1), ((3, 3), 0), ((1, 1), 0)])
@pytest.mark.parametrize("size", list(_DW_OUT_SIZES))
def test_depthwise_out_matches_the_pure_call_bitwise(size, kernel, padding, dtype,
                                                     signed_zero_input, assert_bitwise):
    c = _DW_OUT_SIZES[size]
    p = _dw_conv_bn(c, kernel, padding, dtype, seed=41)
    oh, ow = p.spec.out_size(size, size)
    assert c * oh * (size + 2 * padding) > _DW_BLOCK  # several channel blocks per image
    x = signed_zero_input((3, c, size, size), dtype, seed=42)
    want = conv_bn(x, p)
    into = np.empty((3, c, oh, ow), dtype)
    assert conv_bn(x, p, out=into) is into
    assert_bitwise(into, want)
    if into.shape == x.shape:
        assert conv_bn(x, p, out=x) is x
        assert_bitwise(x, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elem_add_out_matches_the_pure_call_bitwise(dtype, signed_zero_input, assert_bitwise):
    a = signed_zero_input((2, 3, 5, 7), dtype, seed=43)
    b = signed_zero_input((2, 3, 5, 7), dtype, seed=44)
    want = elem_add(a, b)
    into = np.empty_like(a)
    assert elem_add(a, b, out=into) is into
    assert_bitwise(into, want)
    b2 = b.copy()
    assert elem_add(a, b2, out=b2) is b2
    assert_bitwise(b2, want)
    assert elem_add(a, b, out=a) is a
    assert_bitwise(a, want)


def _bad_outs(x):
    # (message, input, out): an out of the wrong shape, of the wrong dtype,
    # not C-contiguous, not an array, and one that overlaps the input
    # without being it
    other = np.float64 if x.dtype == np.float32 else np.float32
    wide = np.empty((*x.shape[:-1], 2 * x.shape[-1]), x.dtype)
    buf = np.empty(x.size + 1, x.dtype)
    shifted_in = buf[:-1].reshape(x.shape)
    shifted_in[...] = x
    return [("out shape", x, np.empty((1, *x.shape), x.dtype)),
            ("out dtype", x, np.empty(x.shape, other)),
            ("C-contiguous", x, wide[..., ::2]),
            ("numpy array", x, x.tolist()),
            ("share no memory", shifted_in, buf[1:].reshape(x.shape))]


@pytest.mark.parametrize("kernel", ["gelu", "elem_add", "conv_bn"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_out_forms_reject_a_bad_out(kernel, dtype):
    p = _dw_conv_bn(6, (3, 3), 1, dtype, seed=46)
    call = {"gelu": lambda x, out: gelu(x, out=out),
            "elem_add": lambda x, out: elem_add(x, x, out=out),
            "conv_bn": lambda x, out: conv_bn(x, p, out=out)}[kernel]
    for message, x, out in _bad_outs(rand((2, 6, 7, 7), seed=45, dtype=dtype)):
        with pytest.raises(ValueError, match=message):
            call(x, out)


def test_dense_conv_takes_no_out():
    x = rand((1, 4, 6, 6), seed=47)
    dense = identity_conv_bn(ConvSpec(4, 4, (1, 1)), rand((4, 4, 1, 1), seed=48))
    with pytest.raises(ValueError, match="depthwise conv only"):
        conv_bn(x, dense, out=np.empty_like(x))
    with pytest.raises(ValueError, match="depthwise conv only"):
        conv2d(x, dense.spec, dense.weight, dense.bias, out=x)


# ----------------------------------------------------- concat and elementwise

def test_concat_self_doubles_channels():
    x = rand((2, 3, 4, 4), seed=18)
    out = concat_channels(x, x)
    assert out.shape == (2, 6, 4, 4)
    assert np.array_equal(out[:, :3], x)
    assert np.array_equal(out[:, 3:], x)


def test_concat_orders_channels():
    a = np.full((1, 1, 1, 1), 1.0, np.float32)
    b = np.full((1, 1, 1, 1), 2.0, np.float32)
    out = concat_channels(a, b)
    assert out[0, 0, 0, 0] == 1.0 and out[0, 1, 0, 0] == 2.0


def test_concat_shape_arithmetic():
    out = concat_channels(rand((2, 3, 4, 4)), rand((2, 5, 4, 4)))
    assert out.shape == (2, 8, 4, 4)


def test_concat_mismatch_rejected():
    with pytest.raises(ValueError):
        concat_channels(rand((2, 3, 4, 4)), rand((2, 3, 5, 4)))
    with pytest.raises(ValueError):
        concat_channels(rand((2, 3, 4, 4)), rand((1, 3, 4, 4)))


def test_elementwise_basics():
    x = rand((2, 2, 3, 3), seed=19)
    assert np.array_equal(elem_max(x, x), x)
    assert np.all(elem_sub(x, x) == 0)
    y = rand((2, 2, 3, 3), seed=20)
    assert np.array_equal(elem_add(x, y), x + y)
    with pytest.raises(ValueError):
        elem_max(x, rand((2, 2, 3, 4)))


def test_max_fold_order_independent():
    tensors = [rand((1, 2, 4, 4), seed=21 + i) for i in range(5)]
    folded_fwd = tensors[0]
    for t in tensors[1:]:
        folded_fwd = elem_max(folded_fwd, t)
    folded_rev = tensors[-1]
    for t in reversed(tensors[:-1]):
        folded_rev = elem_max(folded_rev, t)
    assert np.array_equal(folded_fwd, folded_rev)


# ---------------------------------------------------------- pool and linear

def test_pool_constant_and_mean():
    x = np.full((2, 3, 4, 4), 2.5, np.float32)
    assert np.all(global_avg_pool(x) == 2.5)
    y = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 1, 2, 2)
    assert global_avg_pool(y).item() == 2.5


def test_pool_roll_invariant():
    x = rand((2, 4, 6, 6), seed=22)
    base = global_avg_pool(x)
    rolled = global_avg_pool(roll_2d(x, 2, 5))
    np.testing.assert_allclose(rolled, base, rtol=1e-6)


def test_linear_identity_and_constants():
    x = rand((3, 4), seed=23)
    eye = np.eye(4, dtype=np.float32)
    assert np.array_equal(linear(x, eye, np.zeros(4, np.float32)), x)
    out = linear(x, np.zeros((2, 4), np.float32), np.array([5.0, -1.0], np.float32))
    assert np.all(out == np.array([5.0, -1.0], np.float32))


def test_linear_hand_dot():
    x = np.array([[1.0, 2.0]], np.float32)
    out = linear(x, np.array([[3.0, 4.0]], np.float32), np.array([5.0], np.float32))
    assert out.item() == 16.0


def test_linear_shape_errors():
    with pytest.raises(ValueError):
        linear(rand((2, 3)), rand((4, 5)), np.zeros(4, np.float32))
    with pytest.raises(ValueError):
        linear(rand((2, 3)), rand((4, 3)), np.zeros(3, np.float32))
