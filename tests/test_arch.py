import itertools
import math

import numpy as np
import pytest

from mobilevig import arch
from mobilevig.arch import (
    INIT_BOUND,
    INIT_STD,
    VARIANTS,
    build_model,
    count_macs,
    count_params,
    downsample_forward,
    forward_entries,
    get_variant,
    layer_plan,
    layer_shapes,
    mbconv_forward,
    model_forward,
    model_forward_with_stages,
    named_params,
    stem_forward,
    _trunc_normal,
)
from mobilevig.svga import svga_block_forward
from mobilevig.tensor_core import ConvSpec, conv_bn, gelu, global_avg_pool, linear
from mobilevig.weights_io import load_into_model, save_weights

from helpers import identity_conv_bn

# Reference budget figures for the four variants (millions / billions).
REFERENCE_PARAMS = {"Ti": 5.2e6, "S": 7.2e6, "M": 14.0e6, "B": 26.7e6}
REFERENCE_GMACS = {"Ti": 0.7e9, "S": 1.0e9, "M": 1.5e9, "B": 2.8e9}


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def block_named(w, name):
    """The block weights of the layer_plan entry called name."""
    names = [layer.name for layer in layer_plan(get_variant(w.variant))]
    return w.blocks[names.index(name)]


# Independent bookkeeping of the layer plan, kept apart from arch internals.

def _conv_bn(cin, cout, kh=1, kw=1, groups=1):
    return cout * (cin // groups) * kh * kw + cout + 2 * cout


def analytic_params(cfg):
    c1, c2, c3, c4 = cfg.stage_channels
    total = _conv_bn(3, c1 // 2, 3, 3) + _conv_bn(c1 // 2, c1, 3, 3)
    for i in range(3):
        c = cfg.stage_channels[i]
        hid = cfg.expansion * c
        block = _conv_bn(c, hid) + _conv_bn(hid, hid, 3, 3, groups=hid) + _conv_bn(hid, c)
        total += cfg.stage_depths[i] * block
        total += _conv_bn(c, cfg.stage_channels[i + 1], 3, 3)
    svga = (_conv_bn(c4, c4) + _conv_bn(2 * c4, 2 * c4) + _conv_bn(2 * c4, c4)
            + _conv_bn(c4, cfg.ffn_ratio * c4) + _conv_bn(cfg.ffn_ratio * c4, c4))
    total += cfg.stage_depths[3] * svga
    total += _conv_bn(c4, cfg.head_hidden)
    total += cfg.head_hidden * cfg.num_classes + cfg.num_classes
    return total


def analytic_macs(cfg, size):
    c1, c2, c3, c4 = cfg.stage_channels
    res = size // 4
    total = (size // 2) ** 2 * (c1 // 2) * 3 * 9 + res ** 2 * c1 * (c1 // 2) * 9
    for i in range(3):
        c = cfg.stage_channels[i]
        hid = cfg.expansion * c
        block = res ** 2 * (c * hid + hid * 9 + hid * c)
        total += cfg.stage_depths[i] * block
        res //= 2
        total += res ** 2 * cfg.stage_channels[i + 1] * c * 9
    px = res ** 2
    svga = px * (c4 * c4 + 4 * c4 * c4 + 2 * c4 * c4
                 + c4 * cfg.ffn_ratio * c4 + cfg.ffn_ratio * c4 * c4)
    total += cfg.stage_depths[3] * svga
    total += px * c4 * cfg.head_hidden
    total += cfg.head_hidden * cfg.num_classes
    return total


@pytest.mark.parametrize("name", list(VARIANTS))
def test_count_params_matches_analytic_plan(name):
    cfg = VARIANTS[name]
    assert count_params(build_model(cfg, skeleton=True)) == analytic_params(cfg)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_count_macs_matches_analytic_plan(name):
    cfg = VARIANTS[name]
    assert count_macs(cfg, 224, 224) == analytic_macs(cfg, 224)


def test_frozen_totals():
    got_p = {n: count_params(build_model(c, skeleton=True)) for n, c in VARIANTS.items()}
    got_m = {n: count_macs(c, 224, 224) for n, c in VARIANTS.items()}
    assert got_p == {"Ti": 5401422, "S": 7406184, "M": 13663560, "B": 26470828}
    assert got_m == {"Ti": 674856320, "S": 996402944,
                     "M": 1512676352, "B": 2815358208}


@pytest.mark.parametrize("name", list(VARIANTS))
def test_params_within_reference_budget(name):
    p = count_params(build_model(VARIANTS[name], skeleton=True))
    assert abs(p - REFERENCE_PARAMS[name]) <= 0.10 * REFERENCE_PARAMS[name]


@pytest.mark.parametrize("name", list(VARIANTS))
def test_macs_within_reference_budget(name):
    m = count_macs(VARIANTS[name], 224, 224)
    assert abs(m - REFERENCE_GMACS[name]) <= 0.15 * REFERENCE_GMACS[name]


def test_params_monotone_across_variants():
    p = [count_params(build_model(VARIANTS[n], skeleton=True)) for n in ("Ti", "S", "M", "B")]
    assert p == sorted(p) and len(set(p)) == 4


def test_macs_scale_quadratically_with_resolution():
    cfg = VARIANTS["Ti"]
    ratio = count_macs(cfg, 448, 448) / count_macs(cfg, 224, 224)
    assert 3.7 < ratio < 4.05


def test_count_params_seed_independent():
    cfg = VARIANTS["Ti"]
    n = count_params(build_model(cfg, 0))
    assert n == count_params(build_model(cfg, 99))
    assert n == count_params(build_model(cfg, skeleton=True))


# ------------------------------------------------------------ block forwards

def _zero_mbconv(c, expansion=4):
    hid = expansion * c

    def zcb(spec):
        return identity_conv_bn(spec, np.zeros(spec.weight_shape(), np.float32))

    return (
        zcb(ConvSpec(c, hid, (1, 1))),                      # expand
        zcb(ConvSpec(hid, hid, (3, 3), 1, 1, groups=hid)),  # depthwise
        zcb(ConvSpec(hid, c, (1, 1))),                      # project
    )


def test_mbconv_zero_weights_is_identity():
    x = rand((2, 6, 5, 5), seed=1)
    assert np.array_equal(mbconv_forward(x, _zero_mbconv(6)), x)


def test_mbconv_preserves_shape():
    w = build_model(VARIANTS["Ti"], 0)
    x = rand((2, 42, 8, 8), seed=2)
    assert mbconv_forward(x, block_named(w, "stage1.0")).shape == x.shape


def test_mbconv_single_pixel_scalar_chain():
    # all conv weights 1, identity BN, expansion 4, 1 channel, 1 pixel:
    # out = x + 4 * gelu(gelu(x))
    def ones_cb(spec):
        return identity_conv_bn(spec, np.ones(spec.weight_shape(), np.float32))

    w = (
        ones_cb(ConvSpec(1, 4, (1, 1))),                  # expand
        ones_cb(ConvSpec(4, 4, (3, 3), 1, 1, groups=4)),  # depthwise
        ones_cb(ConvSpec(4, 1, (1, 1))),                  # project
    )

    def g(v):
        return v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))

    for val in (0.9, -0.4, 1.7):
        x = np.full((1, 1, 1, 1), val, np.float32)
        want = val + 4.0 * g(g(val))
        assert abs(mbconv_forward(x, w).item() - want) < 1e-5


def test_stem_resolutions_and_channels():
    w = build_model(VARIANTS["Ti"], 0)
    out = stem_forward(rand((1, 3, 224, 224), seed=3), block_named(w, "stem"))
    assert out.shape == (1, 42, 56, 56)
    out = stem_forward(rand((1, 3, 32, 32), seed=4), block_named(w, "stem"))
    assert out.shape == (1, 42, 8, 8)
    with pytest.raises(ValueError):
        stem_forward(rand((1, 3, 30, 30)), block_named(w, "stem"))


def test_stem_width_is_42_for_every_variant():
    for cfg in VARIANTS.values():
        assert cfg.stage_channels[0] == 42


def test_downsample_halving():
    w = build_model(VARIANTS["Ti"], 0)
    assert downsample_forward(rand((1, 42, 56, 56), 5), block_named(w, "downsample1")).shape \
        == (1, 84, 28, 28)
    assert downsample_forward(rand((1, 84, 28, 28), 6), block_named(w, "downsample2")).shape \
        == (1, 168, 14, 14)
    # odd inputs round up: ceil((7 + 2 - 3) / 2) + 1 = 4
    assert downsample_forward(rand((1, 84, 7, 7), 7), block_named(w, "downsample2")).shape \
        == (1, 168, 4, 4)


# ------------------------------------------------------------- build / model

def test_build_model_deterministic():
    a = build_model(VARIANTS["Ti"], seed=5)
    b = build_model(VARIANTS["Ti"], seed=5)
    for (na, pa), (nb, pb) in zip(named_params(a), named_params(b)):
        assert na == nb
        assert np.array_equal(pa, pb)


def test_build_model_seed_changes_weights():
    a = dict(named_params(build_model(VARIANTS["Ti"], seed=0)))
    b = dict(named_params(build_model(VARIANTS["Ti"], seed=1)))
    assert not np.array_equal(a["stem.0.conv.weight"], b["stem.0.conv.weight"])


def test_build_model_init_statistics():
    w = build_model(VARIANTS["Ti"], seed=0)
    for name, arr in named_params(w):
        if name.endswith(".bn.gamma"):
            assert np.all(arr == 1.0)
        elif name.endswith((".bn.beta", ".bn.mean", ".conv.bias", "fc.bias")):
            assert np.all(arr == 0.0)
        elif name.endswith(".bn.var"):
            assert np.all(arr == 1.0)
        else:
            assert np.all(np.abs(arr) <= 2 * 0.02 + 1e-7), name
            assert arr.dtype == np.float32


def _block_specs(block):
    assert isinstance(block, tuple)
    return [p.spec for p in block]


@pytest.mark.parametrize("name", list(VARIANTS))
def test_blocks_are_conv_bn_tuples_in_plan_order(tmp_path, name):
    # each block is the tuple of its plan entry's ConvBns, in the order of
    # the entry's convs, whether drawn, a skeleton or loaded from a file
    cfg = VARIANTS[name]
    want = [[spec for _, spec in layer.convs] for layer in layer_plan(cfg)]
    built = build_model(cfg, 0)
    path = tmp_path / "w.mvig"
    save_weights(str(path), built)
    for model in (built, build_model(cfg, skeleton=True), load_into_model(str(path), cfg)):
        assert [_block_specs(block) for block in model.blocks] == want


@pytest.mark.parametrize("name", list(VARIANTS))
def test_layer_plan_matches_forward(monkeypatch, assert_bitwise, name):
    # forward_entries yields one output per plan entry: its block forward on
    # the previous entry's output and its own weights, bit for bit, with the
    # shape layer_shapes predicts. Blocks are looked up as module globals at
    # call time (the benchmark's tracer patches those names), shown here for
    # mbconv_forward. The stage maps are the maps entering each downsample
    # and the head, and the logits pool the head entry's map.
    cfg = VARIANTS[name]
    w = build_model(cfg, 0)
    x = rand((1, 3, 64, 64), seed=3)
    logits, stages = model_forward_with_stages(x, w, cfg)
    mbconv_weights = []

    def record(t, p):
        mbconv_weights.append(p)
        return mbconv_forward(t, p)

    monkeypatch.setattr(arch, "mbconv_forward", record)
    entries = list(forward_entries(x, w, cfg))
    shapes = layer_shapes(cfg, 64, 64)
    assert [layer for layer, _ in entries] == [layer for layer, _, _ in shapes]
    assert [id(p) for p in mbconv_weights] == [
        id(block) for (layer, _), block in zip(entries, w.blocks) if layer.kind == "mbconv"]
    block_forward = {
        "stem": stem_forward,
        "mbconv": mbconv_forward,
        "downsample": downsample_forward,
        "svga": lambda t, p: svga_block_forward(t, p, cfg.k),
        "head": lambda t, p: gelu(conv_bn(t, *p)),
    }
    t = x
    for (layer, out), (_, _, hw), block in zip(entries, shapes, w.blocks, strict=True):
        assert out.shape == (1, layer.convs[-1][1].out_channels, *hw)
        assert_bitwise(out, block_forward[layer.kind](t, block))
        t = out
    entering = [entries[i - 1] for i, (layer, _) in enumerate(entries)
                if layer.kind in ("downsample", "head")]
    assert [layer.kind for layer, _ in entering] == ["mbconv"] * 3 + ["svga"]
    assert len(stages) == len(entering)
    for stage, (_, t) in zip(stages, entering):
        assert_bitwise(stage, t)
    assert_bitwise(logits, linear(global_avg_pool(entries[-1][1]), w.head_weight, w.head_bias))
    assert entries[-1][0].kind == "head"
    assert count_macs(cfg, 64, 64) == sum(macs for _, macs, _ in shapes)


@pytest.mark.parametrize("weights_variant,shape,match", [
    ("B", (1, 3, 64, 64), "'B'.*'Ti'"),
    ("Ti", (1, 1, 64, 64), r"input must be \(n, 3, h, w\)"),
    ("Ti", (1, 3, 64), r"input must be \(n, 3, h, w\)"),
    ("Ti", (1, 3, 64, 80), "divisible by 32"),
])
def test_forward_entries_rejects_bad_input_on_first_next(weights_variant, shape, match):
    # creating the generator checks nothing; the first next() raises before
    # any block runs
    entries = forward_entries(np.zeros(shape, np.float32),
                              build_model(VARIANTS[weights_variant], skeleton=True),
                              VARIANTS["Ti"])
    with pytest.raises(ValueError, match=match):
        next(entries)


@pytest.mark.parametrize("n", [0, 1, 4, 16])
def test_forward_entries_runs_only_the_entries_taken(monkeypatch, n):
    # Ti's plan has 17 entries; the first 16 end with its two SVGA blocks
    cfg = VARIANTS["Ti"]
    w = build_model(cfg, 0)
    forward_of = {"stem": "stem_forward", "mbconv": "mbconv_forward",
                  "downsample": "downsample_forward", "svga": "svga_block_forward"}
    calls = []
    for attr in forward_of.values():
        def record(*args, _attr=attr, _fn=getattr(arch, attr)):
            calls.append(_attr)
            return _fn(*args)
        monkeypatch.setattr(arch, attr, record)
    taken = list(itertools.islice(forward_entries(rand((1, 3, 64, 64)), w, cfg), n))
    kinds = [layer.kind for layer in layer_plan(cfg)[:n]]
    assert [layer.kind for layer, _ in taken] == kinds
    assert calls == [forward_of[kind] for kind in kinds]


def test_layer_plan_is_built_once_and_immutable():
    plan = layer_plan(VARIANTS["Ti"])
    assert layer_plan(VARIANTS["Ti"]) is plan
    assert isinstance(plan, tuple)
    assert layer_plan(VARIANTS["S"]) is not plan


def test_named_params_unique():
    names = [n for n, _ in named_params(build_model(VARIANTS["Ti"], 0))]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name,c4", [("Ti", 256), ("B", 464)])
def test_stage4_shape_at_224(name, c4):
    cfg = VARIANTS[name]
    w = build_model(cfg, 0)
    x = rand((1, 3, 224, 224), seed=8)
    logits, stages = model_forward_with_stages(x, w, cfg)
    assert stages[3].shape == (1, c4, 7, 7)
    assert logits.shape == (1, cfg.num_classes)


def test_model_forward_batch_independence():
    cfg = VARIANTS["Ti"]
    w = build_model(cfg, 0)
    x = rand((2, 3, 64, 64), seed=9)
    both = model_forward(x, w, cfg)
    stacked = np.concatenate(
        [model_forward(x[:1], w, cfg), model_forward(x[1:], w, cfg)], axis=0)
    assert np.array_equal(both, stacked)


def test_model_forward_deterministic():
    cfg = VARIANTS["Ti"]
    w = build_model(cfg, 0)
    x = rand((1, 3, 64, 64), seed=10)
    assert np.array_equal(model_forward(x, w, cfg), model_forward(x, w, cfg))


def test_model_forward_input_validation():
    cfg = VARIANTS["Ti"]
    w = build_model(cfg, 0)
    with pytest.raises(ValueError):
        model_forward(rand((1, 3, 225, 225)), w, cfg)
    with pytest.raises(ValueError):
        model_forward(rand((1, 1, 64, 64)), w, cfg)


def test_model_forward_rejects_weights_of_another_variant():
    w = build_model(VARIANTS["Ti"], 0)
    with pytest.raises(ValueError, match="'Ti'.*'B'"):
        model_forward(rand((1, 3, 64, 64)), w, VARIANTS["B"])


def test_get_variant_error():
    with pytest.raises(ValueError):
        get_variant("XL")


def test_trunc_normal_in_place_scale_matches_allocating_bitwise():
    # the reference redraws with a whole-array mask every round; the head's
    # classifier shape is among the inputs
    for shape, seed in itertools.product([(300, 70), (1000, 1024)], [0, 1, 2, 3]):
        got = _trunc_normal(np.random.default_rng(seed), shape)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(shape)
        mask = np.abs(vals) > INIT_BOUND
        while mask.any():
            vals[mask] = rng.standard_normal(int(mask.sum()))
            mask = np.abs(vals) > INIT_BOUND
        want = (vals * INIT_STD).astype(np.float32)
        assert got.dtype == np.float32
        assert np.array_equal(got, want)
