import math

import numpy as np
import pytest

from mobilevig.grad_check import random_block_weights
from mobilevig.svga import (
    block_convs,
    build_fixed_offsets,
    ffn_forward,
    fold_shifts,
    gather_aggregate,
    grapher_forward,
    mrconv_aggregate,
    svga_block_forward,
)
from mobilevig.tensor_core import ConvSpec, concat_channels, conv_bn, gelu, roll_2d

from helpers import identity_conv_bn, neighbors_per_pixel


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def zero_block_weights(c, ffn_ratio=4):
    return tuple(identity_conv_bn(spec, np.zeros(spec.weight_shape(), np.float32))
                 for _, spec in block_convs(c, ffn_ratio))


# --------------------------------------------------------- fixed offsets

def test_offsets_8x8_k2():
    g = build_fixed_offsets(8, 8, 2)
    assert g.row_offsets == (2, 4, 6)
    assert g.col_offsets == (2, 4, 6)
    assert neighbors_per_pixel(g) == 6


def test_offsets_empty_when_stride_reaches_bound():
    g = build_fixed_offsets(4, 4, 4)
    assert g.row_offsets == () and g.col_offsets == ()
    assert neighbors_per_pixel(g) == 0


def test_offsets_rectangular():
    g = build_fixed_offsets(7, 5, 2)
    assert g.col_offsets == (2, 4, 6)
    assert g.row_offsets == (2, 4)


def test_offsets_count_formula():
    for h in range(1, 11):
        for w in range(1, 11):
            for k in range(1, 6):
                g = build_fixed_offsets(h, w, k)
                want = (math.ceil(h / k) - 1) + (math.ceil(w / k) - 1)
                assert neighbors_per_pixel(g) == want
                assert all(0 < o < w for o in g.row_offsets)
                assert all(0 < o < h for o in g.col_offsets)
                assert list(g.row_offsets) == sorted(g.row_offsets)


def test_offsets_reject_bad_stride():
    with pytest.raises(ValueError):
        build_fixed_offsets(4, 4, 0)
    with pytest.raises(ValueError):
        build_fixed_offsets(4, 4, -2)


# ------------------------------------------------------- aggregation

def test_aggregate_constant_input_is_zero():
    x = np.full((2, 3, 8, 8), 1.7, np.float32)
    assert np.all(mrconv_aggregate(x, 2) == 0.0)


def test_aggregate_hand_column():
    x = np.array([1.0, 5.0, 2.0, 8.0], np.float32).reshape(1, 1, 4, 1)
    xj = mrconv_aggregate(x, 2)
    # col offset {2}: pixel i pairs with (i-2) mod 4, clamped at 0
    assert xj.reshape(4).tolist() == [0.0, 0.0, 1.0, 3.0]


def test_aggregate_nonnegative():
    for seed in range(5):
        xj = mrconv_aggregate(rand((2, 4, 7, 9), seed), 3)
        assert np.all(xj >= 0.0)


def test_zero_init_equals_explicit_m0_seed():
    # folding from zeros matches seeding the fold with the m=0 term
    x = rand((1, 3, 6, 6), seed=42)
    k = 2
    seeded = x - roll_2d(x, 0, 0)
    for off in (2, 4):
        seeded = np.maximum(x - roll_2d(x, off, 0), seeded)
    for off in (2, 4):
        seeded = np.maximum(x - roll_2d(x, 0, off), seeded)
    assert np.array_equal(mrconv_aggregate(x, k), seeded)


def test_aggregate_matches_gather_on_spot_checks():
    for h, w, k, seed in ((8, 8, 2, 0), (5, 7, 3, 1), (14, 4, 1, 2), (1, 6, 2, 3)):
        x = rand((2, 3, h, w), seed)
        graph = build_fixed_offsets(h, w, k)
        assert np.array_equal(mrconv_aggregate(x, k), gather_aggregate(x, graph))


def offset_fold(x, graph):
    """X_j as one allocating gather, subtract and max per offset, folded
    from zeros, column offsets then row offsets: the definition
    gather_aggregate must match bitwise."""
    h, w = x.shape[2], x.shape[3]
    acc = np.zeros_like(x)
    for off in graph.col_offsets:
        acc = np.maximum(x - x[:, :, (np.arange(h) - off) % h, :], acc)
    for off in graph.row_offsets:
        acc = np.maximum(x - x[..., (np.arange(w) - off) % w], acc)
    return acc


def special_value_input(shape, dtype, seed):
    """Small integers, so that differences tie, with NaN, +-0 and +-inf
    drawn at half of the positions."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=shape).astype(dtype)
    flat = x.reshape(-1)
    pos = rng.choice(flat.size, size=max(1, flat.size // 2), replace=False)
    flat[pos] = rng.choice(np.array([np.nan, 0.0, -0.0, np.inf, -np.inf], dtype), size=pos.size)
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_aggregate_equals_offset_fold_bitwise(dtype, assert_bitwise):
    cases = ((8, 8, 2), (5, 7, 1), (7, 3, 3), (1, 6, 2), (14, 4, 1), (4, 4, 4), (3, 2, 5))
    for h, w, k in cases:
        graph = build_fixed_offsets(h, w, k)
        x = special_value_input((2, 3, h, w), dtype, seed=h * 100 + w * 10 + k)
        # a non-contiguous view: every other channel, columns reversed
        strided = special_value_input((2, 6, h, w), dtype, seed=k)[:, ::2, :, ::-1]
        for inp in (x, strided):
            kept = inp.copy()
            with np.errstate(invalid="ignore"):  # inf - inf
                got = gather_aggregate(inp, graph)
                want = offset_fold(inp, graph)
            assert_bitwise(got, want)
            assert_bitwise(inp, kept)
            if not neighbors_per_pixel(graph):  # k >= h and k >= w
                assert_bitwise(got, np.zeros(inp.shape, dtype))


def shift_fold(x, k):
    """X_j as one roll, one subtract and one max per shift of fold_shifts,
    folded from zeros: the definition mrconv_aggregate must match bitwise."""
    xj = np.zeros_like(x)
    for down, right in fold_shifts(x.shape[2], x.shape[3], k):
        xj = np.maximum(x - np.roll(x, (down, right), axis=(2, 3)), xj)
    return xj


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_aggregate_equals_shift_fold_bitwise_on_grid(dtype, signed_zero_input, assert_bitwise):
    # covers k >= L and 1-pixel axes; zero signs compared too
    for h in (1, 2, 3, 4, 5, 7, 8, 9, 14, 28):
        for w in (1, 2, 5, 7, 8, 14, 28):
            for k in range(1, 6):
                x = signed_zero_input((2, 3, h, w), dtype, seed=h * 100 + w * 10 + k)
                assert_bitwise(mrconv_aggregate(x, k), shift_fold(x, k))


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 3, 5, 7), (1, 5, 9, 7), (3, 37, 9, 7),
                                   (1, 33, 29, 27)])
def test_aggregate_signed_zeros_in_odd_sized_arrays(shape, signed_zero_input, assert_bitwise):
    # odd total sizes put planted zeros in the SIMD bodies and the scalar tails
    for dtype in (np.float32, np.float64):
        for k in (1, 2, 3):
            x = signed_zero_input(shape, dtype, seed=sum(shape) + k)
            got = mrconv_aggregate(x, k)
            assert_bitwise(got, shift_fold(x, k))
            assert not np.any(np.signbit(got))


def test_aggregate_propagates_nan_like_shift_fold(assert_bitwise):
    for h, w, k in ((8, 8, 2), (7, 9, 3), (28, 28, 2), (5, 1, 2)):
        x = rand((2, 3, h, w), seed=h + w + k)
        flat = x.reshape(-1)
        flat[np.random.default_rng(k).choice(flat.size, size=3, replace=False)] = np.nan
        got = mrconv_aggregate(x, k)
        assert np.any(np.isnan(got))
        assert_bitwise(got, shift_fold(x, k))


def test_aggregate_accepts_non_contiguous_input(signed_zero_input, assert_bitwise):
    x = signed_zero_input((3, 2, 9, 7), np.float32, seed=5).transpose(1, 0, 2, 3)
    assert_bitwise(mrconv_aggregate(x, 2), shift_fold(x, 2))
    assert_bitwise(mrconv_aggregate(x[:, :, ::2, 1:], 2), shift_fold(x[:, :, ::2, 1:], 2))


def test_mrconv_constant_input_gives_positive_zeros(assert_bitwise):
    x = np.full((1, 2, 4, 4), 3.0, np.float32)
    assert_bitwise(mrconv_aggregate(x, 2), np.zeros_like(x))


def test_grapher_projects_x_then_oracle_xj(assert_bitwise):
    # a non-square map whose sides k does not both divide
    c, h, w, k = 3, 6, 9, 2
    w_in, proj, w_out = random_block_weights(c, np.random.default_rng(8), dtype=np.float32)[:3]
    x = rand((2, c, h, w), seed=7)
    t = conv_bn(x, w_in)
    xj = gather_aggregate(t, build_fixed_offsets(h, w, k))
    want = conv_bn(gelu(conv_bn(concat_channels(t, xj), proj)), w_out) + x
    assert_bitwise(grapher_forward(x, (w_in, proj, w_out), k), want)


def test_oracle_empty_graph_gives_positive_zeros(assert_bitwise):
    x = rand((1, 2, 3, 3), seed=9)
    assert_bitwise(gather_aggregate(x, build_fixed_offsets(3, 3, 5)), np.zeros_like(x))


def test_oracle_rejects_wrong_grid():
    x = rand((1, 2, 4, 4))
    with pytest.raises(ValueError):
        gather_aggregate(x, build_fixed_offsets(5, 4, 2))


# ------------------------------------------------------ grapher / ffn / block

def test_grapher_zero_weights_is_identity():
    c = 6
    w = zero_block_weights(c)
    x = rand((2, c, 5, 5), seed=11)
    assert np.array_equal(grapher_forward(x, w[:3], 2), x)


def test_grapher_preserves_shape():
    c = 8
    rng = np.random.default_rng(12)
    w = random_block_weights(c, rng, dtype=np.float32)
    x = rand((3, c, 7, 7), seed=13)
    assert grapher_forward(x, w[:3], 2).shape == x.shape


def test_grapher_translation_equivariant():
    c = 8
    rng = np.random.default_rng(14)
    w = random_block_weights(c, rng, dtype=np.float32)
    x = rand((1, c, 8, 8), seed=15)
    base = grapher_forward(x, w[:3], 2)
    for d, e in ((1, 0), (0, 3), (5, 2), (7, 7)):
        lhs = grapher_forward(roll_2d(x, d, e), w[:3], 2)
        assert np.array_equal(lhs, roll_2d(base, d, e))


def test_ffn_zero_weights_is_identity():
    w = zero_block_weights(4)
    x = rand((2, 4, 3, 3), seed=16)
    assert np.array_equal(ffn_forward(x, w[3:]), x)


def test_ffn_hidden_width():
    w = zero_block_weights(8, ffn_ratio=4)
    w1, w2 = w[3:]
    assert w1.spec.out_channels == 32
    assert w2.spec.in_channels == 32


def test_ffn_single_pixel_scalar_chain():
    # w1 = w2 = 1, identity BN: z = gelu(x) + x
    spec1 = ConvSpec(1, 1, (1, 1))
    ffn = (identity_conv_bn(spec1, np.ones((1, 1, 1, 1))),   # w1
           identity_conv_bn(spec1, np.ones((1, 1, 1, 1))))   # w2
    for val in (0.7, -1.3, 2.0):
        x = np.full((1, 1, 1, 1), val, np.float32)
        want = val * 0.5 * (1.0 + math.erf(val / math.sqrt(2.0))) + val
        assert abs(ffn_forward(x, ffn).item() - want) < 1e-6


def test_block_zero_weights_is_identity():
    w = zero_block_weights(5)
    x = rand((2, 5, 4, 6), seed=17)
    assert np.array_equal(svga_block_forward(x, w, 2), x)


def test_block_stage4_shape():
    c = 256
    rng = np.random.default_rng(18)
    w = random_block_weights(c, rng, dtype=np.float32)
    x = rand((1, c, 7, 7), seed=19)
    assert svga_block_forward(x, w, 2).shape == (1, c, 7, 7)


def test_block_translation_equivariant():
    c = 8
    rng = np.random.default_rng(20)
    w = random_block_weights(c, rng, dtype=np.float32)
    x = rand((1, c, 7, 7), seed=21)
    base = svga_block_forward(x, w, 2)
    for d, e in ((1, 0), (3, 4), (6, 6), (0, 2)):
        lhs = svga_block_forward(roll_2d(x, d, e), w, 2)
        assert np.array_equal(lhs, roll_2d(base, d, e))


def test_block_batch_independence():
    c = 6
    rng = np.random.default_rng(22)
    w = random_block_weights(c, rng, dtype=np.float32)
    x = rand((2, c, 8, 8), seed=23)
    both = svga_block_forward(x, w, 2)
    first = svga_block_forward(x[:1], w, 2)
    second = svga_block_forward(x[1:], w, 2)
    assert np.array_equal(both, np.concatenate([first, second], axis=0))
