"""MobileViG model assembly: stem, three MBConv stages with strided-conv
downsampling, one SVGA stage, and a convolutional classification head.

Stage schedule for a (h, w) input: stem brings the map to h/4, each
downsample halves it again, so the SVGA stage runs at h/32. Per-variant
depths, widths and the SVGA connection stride live in VariantConfig.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .svga import block_convs, svga_block_forward
from .tensor_core import (
    Array,
    ConvBn,
    ConvSpec,
    _require,
    conv_bn,
    elem_add,
    gelu,
    global_avg_pool,
    linear,
)

BN_EPS = 1e-5
INIT_STD = 0.02
INIT_BOUND = 2.0  # truncation in units of sigma


@dataclass(frozen=True)
class VariantConfig:
    name: str
    stage_depths: tuple[int, int, int, int]
    stage_channels: tuple[int, int, int, int]
    k: int = 2
    expansion: int = 4
    ffn_ratio: int = 4
    head_hidden: int = 1024
    num_classes: int = 1000


VARIANTS: dict[str, VariantConfig] = {
    "Ti": VariantConfig("Ti", (2, 2, 6, 2), (42, 84, 168, 256)),
    "S": VariantConfig("S", (3, 3, 9, 3), (42, 84, 176, 256)),
    "M": VariantConfig("M", (3, 3, 9, 3), (42, 84, 224, 400)),
    "B": VariantConfig("B", (5, 5, 15, 5), (42, 84, 240, 464)),
}


def get_variant(name: str) -> VariantConfig:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}") from None


@dataclass
class ModelWeights:
    """One block per layer_plan entry, in plan order. A block is the tuple
    of its plan entry's ConvBns, in the order of the entry's convs: 2 for
    the stem, 3 for an MBConv, 1 for a downsample or the head, 5 for an
    SVGA block. The classifier follows the plan."""

    variant: str
    blocks: list[tuple[ConvBn, ...]]
    head_weight: Array
    head_bias: Array


def _trunc_normal(rng: np.random.Generator, shape: tuple[int, ...],
                  std: float = INIT_STD) -> Array:
    vals = rng.standard_normal(shape)
    # redraw only the positions still out of range, in ascending order: the
    # same draws as a whole-array mask loop, so seeded weights keep their bits
    flat = vals.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > INIT_BOUND)
    while idx.size:
        flat[idx] = rng.standard_normal(idx.size)
        idx = idx[np.abs(flat[idx]) > INIT_BOUND]
    vals *= std
    return vals.astype(np.float32)


def _init_conv_bn(draw: Callable[[tuple[int, ...]], Array], spec: ConvSpec) -> ConvBn:
    c = spec.out_channels
    return ConvBn(
        spec=spec,
        weight=draw(spec.weight_shape()),
        bias=np.zeros(c, dtype=np.float32),
        gamma=np.ones(c, dtype=np.float32),
        beta=np.zeros(c, dtype=np.float32),
        mean=np.zeros(c, dtype=np.float32),
        var=np.ones(c, dtype=np.float32),
        eps=BN_EPS,
    )


@dataclass(frozen=True)
class Layer:
    """One block of the network: its parameter-name prefix, its kind (stem,
    mbconv, downsample, svga or head), and its convs as (name, spec) pairs,
    in the order the block applies them. A conv's parameters are named
    "{prefix}.{name}", or "{prefix}" alone when the name is empty."""

    name: str
    kind: str
    convs: tuple[tuple[str, ConvSpec], ...]


@cache
def layer_plan(cfg: VariantConfig) -> tuple[Layer, ...]:
    """The network in forward order. Building, naming and counting all
    derive from this plan. It is built once per config and shared by every
    caller, so it is an immutable tuple of frozen layers."""
    c1, c4 = cfg.stage_channels[0], cfg.stage_channels[3]
    plan = [Layer("stem", "stem", (
        ("0", ConvSpec(3, c1 // 2, (3, 3), 2, 1)),
        ("1", ConvSpec(c1 // 2, c1, (3, 3), 2, 1)),
    ))]
    for i in range(3):
        c = cfg.stage_channels[i]
        hidden = cfg.expansion * c
        mbconv = (
            ("expand", ConvSpec(c, hidden, (1, 1))),
            ("depthwise", ConvSpec(hidden, hidden, (3, 3), 1, 1, groups=hidden)),
            ("project", ConvSpec(hidden, c, (1, 1))),
        )
        plan += [Layer(f"stage{i + 1}.{b}", "mbconv", mbconv)
                 for b in range(cfg.stage_depths[i])]
        plan.append(Layer(f"downsample{i + 1}", "downsample",
                          (("", ConvSpec(c, cfg.stage_channels[i + 1], (3, 3), 2, 1)),)))
    svga = block_convs(c4, cfg.ffn_ratio)
    plan += [Layer(f"stage4.{b}", "svga", svga) for b in range(cfg.stage_depths[3])]
    plan.append(Layer("head.conv", "head", (("", ConvSpec(c4, cfg.head_hidden, (1, 1))),)))
    return tuple(plan)


def build_model(cfg: VariantConfig, seed: int = 0, *, skeleton: bool = False) -> ModelWeights:
    """Deterministically initialized weights: truncated-normal convs and the
    classifier, zero biases, identity batch norms. Parameters are drawn in
    layer_plan order, so equal seeds give bitwise-equal models.

    skeleton=True gives the same arrays (names, shapes, dtypes) with zero
    conv and classifier weights and draws nothing: a model to be filled in,
    as weights_io.load_into_model does.
    """
    if skeleton:
        draw = partial(np.zeros, dtype=np.float32)
    else:
        draw = partial(_trunc_normal, np.random.default_rng(seed))
    blocks = [tuple(_init_conv_bn(draw, spec) for _, spec in layer.convs)
              for layer in layer_plan(cfg)]
    head_weight = draw((cfg.num_classes, cfg.head_hidden))
    head_bias = np.zeros(cfg.num_classes, dtype=np.float32)
    return ModelWeights(cfg.name, blocks, head_weight, head_bias)


def mbconv_forward(x: Array, w: tuple[ConvBn, ...]) -> Array:
    expand, depthwise, project = w
    t = gelu(conv_bn(x, expand))
    t = gelu(conv_bn(t, depthwise))
    t = conv_bn(t, project)
    return elem_add(t, x)


def stem_forward(x: Array, stem: tuple[ConvBn, ...]) -> Array:
    _require(x.shape[2] % 4 == 0 and x.shape[3] % 4 == 0,
             f"stem needs spatial dims divisible by 4, got {x.shape[2]}x{x.shape[3]}")
    t = gelu(conv_bn(x, stem[0]))
    return gelu(conv_bn(t, stem[1]))


def downsample_forward(x: Array, w: tuple[ConvBn, ...]) -> Array:
    _require(x.shape[2] >= 2 and x.shape[3] >= 2,
             "downsample needs spatial dims >= 2")
    return conv_bn(x, *w)


def forward_entries(x: Array, weights: ModelWeights, cfg: VariantConfig):
    """The one walk over the network: yields (layer, t) after each
    layer_plan entry, where t is that entry's output; the head entry's is
    its map before the pool. The variant and the input shape are checked
    before the first yield, so bad input raises on the first next()."""
    _require(weights.variant == cfg.name,
             f"weights are for variant {weights.variant!r}, config is {cfg.name!r}")
    _require(x.ndim == 4 and x.shape[1] == 3,
             f"input must be (n, 3, h, w), got {x.shape}")
    _require(x.shape[2] % 32 == 0 and x.shape[3] % 32 == 0,
             f"input dims must be divisible by 32, got {x.shape[2]}x{x.shape[3]}")
    t = x
    # blocks are looked up as module globals at call time, so a patched
    # name (the benchmark's tracer wraps them) is the one that runs
    for layer, block in zip(layer_plan(cfg), weights.blocks, strict=True):
        if layer.kind == "stem":
            t = stem_forward(t, block)
        elif layer.kind == "mbconv":
            t = mbconv_forward(t, block)
        elif layer.kind == "downsample":
            t = downsample_forward(t, block)
        elif layer.kind == "svga":
            t = svga_block_forward(t, block, cfg.k)
        else:
            t = gelu(conv_bn(t, *block))
        yield layer, t


def model_forward_with_stages(x: Array, weights: ModelWeights,
                              cfg: VariantConfig) -> tuple[Array, list[Array]]:
    """Returns (logits, per-stage feature maps): the activations that enter
    each downsample and the head."""
    t = x
    stage_outputs = []
    for layer, out in forward_entries(x, weights, cfg):
        if layer.kind in ("downsample", "head"):
            stage_outputs.append(t)
        t = out
    pooled = global_avg_pool(t)
    logits = linear(pooled, weights.head_weight, weights.head_bias)
    return logits, stage_outputs


def model_forward(x: Array, weights: ModelWeights, cfg: VariantConfig) -> Array:
    return model_forward_with_stages(x, weights, cfg)[0]


def _conv_bn_entries(prefix: str, p: ConvBn):
    yield prefix + ".conv.weight", p.weight
    yield prefix + ".conv.bias", p.bias
    yield prefix + ".bn.gamma", p.gamma
    yield prefix + ".bn.beta", p.beta
    yield prefix + ".bn.mean", p.mean
    yield prefix + ".bn.var", p.var


def named_params(w: ModelWeights):
    """All parameter arrays with unique names, in deterministic order."""
    plan = layer_plan(get_variant(w.variant))
    for layer, block in zip(plan, w.blocks, strict=True):
        for (name, _), p in zip(layer.convs, block, strict=True):
            yield from _conv_bn_entries(f"{layer.name}.{name}" if name else layer.name, p)
    yield "head.fc.weight", w.head_weight
    yield "head.fc.bias", w.head_bias


def count_params(w: ModelWeights) -> int:
    """Learnable parameter count: convs, batch-norm affine terms, classifier.
    Batch-norm running statistics are state, not parameters, and are skipped.
    """
    total = 0
    for name, arr in named_params(w):
        if name.endswith(".bn.mean") or name.endswith(".bn.var"):
            continue
        total += arr.size
    return total


def layer_shapes(cfg: VariantConfig, h: int,
                 w: int) -> list[tuple[Layer, int, tuple[int, int]]]:
    """(layer, MACs, output size) for each layer_plan entry, for one image
    (batch 1) at h x w. Only convolutions and the classifier (counted in
    the head) have MACs; the roll, subtract and max steps of the graph
    aggregation are MAC-free.
    """
    _require(h % 32 == 0 and w % 32 == 0,
             f"input dims must be divisible by 32, got {h}x{w}")
    rows = []
    for layer in layer_plan(cfg):
        macs = 0
        for _, spec in layer.convs:
            oh, ow = spec.out_size(h, w)
            kh, kw = spec.kernel
            macs += oh * ow * spec.out_channels * (spec.in_channels // spec.groups) * kh * kw
            h, w = oh, ow
        if layer.kind == "head":
            macs += cfg.head_hidden * cfg.num_classes
        rows.append((layer, macs, (h, w)))
    return rows


def count_macs(cfg: VariantConfig, h: int, w: int) -> int:
    """Multiply-accumulate count for one image (batch 1) at h x w."""
    return sum(macs for _, macs, _ in layer_shapes(cfg, h, w))
