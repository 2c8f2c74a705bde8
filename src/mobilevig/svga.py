"""Sparse vision graph attention: fixed row/column graphs, roll-based
max-relative graph convolution, an explicit-gather oracle for it, and the
Grapher / FFN / SVGA block built on top.

The roll path and the gather oracle must agree bitwise: both form the same
(pixel, neighbor) difference pairs and fold them through elementwise max in
the same order, so every float operation is identical between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    Array,
    ConvBn,
    ConvSpec,
    _require,
    concat_channels,
    conv_bn,
    elem_add,
    elem_max,
    elem_sub,
    gelu,
    roll_2d,
)


@dataclass(frozen=True)
class FixedGraph:
    """Input-independent connectivity for an (h, w) grid with stride k.

    Each pixel connects to every k-th pixel along its row (row_offsets, in
    pixels rightward) and along its column (col_offsets, downward), with
    circular wrap at the borders.
    """

    h: int
    w: int
    k: int
    row_offsets: tuple[int, ...]
    col_offsets: tuple[int, ...]

    def neighbors_per_pixel(self) -> int:
        return len(self.row_offsets) + len(self.col_offsets)


def build_fixed_offsets(h: int, w: int, k: int) -> FixedGraph:
    """Offsets {m*k : m >= 1, m*k < bound} for each image axis."""
    _require(h >= 1 and w >= 1, "grid dims must be >= 1")
    if k < 1:
        raise ValueError(f"connection stride k must be >= 1, got {k}")
    return FixedGraph(h=h, w=w, k=k,
                      row_offsets=tuple(range(k, w, k)),
                      col_offsets=tuple(range(k, h, k)))


def fold_shifts(h: int, w: int, k: int) -> list[tuple[int, int]]:
    """The (down, right) rolls mrconv_aggregate folds over, in fold order:
    downward by m*k while m*k < h, then rightward by m*k while m*k < w, each
    from m = 0."""
    return [(m * k, 0) for m in range(0, -(-h // k))] + \
           [(0, m * k) for m in range(0, -(-w // k))]


def mrconv_aggregate(x: Array, k: int) -> Array:
    """Max-relative feature map X_j via circular rolls.

    Starting from zeros, folds max(X - roll(X, down, right), acc) over
    fold_shifts. The (0, 0) terms are identically zero, which clamps the
    result at >= 0.
    """
    _require(k >= 1, f"connection stride k must be >= 1, got {k}")
    xj = np.zeros_like(x)
    for down, right in fold_shifts(x.shape[2], x.shape[3], k):
        xj = elem_max(elem_sub(x, roll_2d(x, down, right)), xj)
    return xj


def mrconv_project(x: Array, xj: Array, proj: ConvBn) -> Array:
    return conv_bn(concat_channels(x, xj), proj)


def mrconv_roll(x: Array, k: int, proj: ConvBn) -> Array:
    """Roll-based max-relative graph convolution: project(concat(X, X_j))."""
    return mrconv_project(x, mrconv_aggregate(x, k), proj)


def gather_aggregate(x: Array, graph: FixedGraph) -> Array:
    """X_j by explicit neighbor gather over the fixed graph.

    For each pixel p the neighbors are looked up through index tables built
    from the offset lists; fold order matches mrconv_aggregate (column
    offsets ascending, then row offsets ascending, seeded with the zero
    self term).
    """
    h, w = x.shape[2], x.shape[3]
    _require(graph.h == h and graph.w == w,
             f"graph is {graph.h}x{graph.w} but input is {h}x{w}")
    xj = np.zeros_like(x)
    rows = np.arange(h)
    cols = np.arange(w)
    for off in graph.col_offsets:
        neighbor = x[:, :, (rows - off) % h, :]
        xj = elem_max(elem_sub(x, neighbor), xj)
    for off in graph.row_offsets:
        neighbor = x[:, :, :, (cols - off) % w]
        xj = elem_max(elem_sub(x, neighbor), xj)
    return xj


def mrconv_gather_oracle(x: Array, graph: FixedGraph, proj: ConvBn) -> Array:
    """Independent reference for mrconv_roll; must agree with it bitwise."""
    return mrconv_project(x, gather_aggregate(x, graph), proj)


@dataclass
class GrapherWeights:
    """Pointwise in-projection, max-relative step, pointwise out-projection.
    The residual is the raw block input."""

    w_in: ConvBn
    proj: ConvBn
    w_out: ConvBn


@dataclass
class FfnWeights:
    """Two pointwise layers with a GeLU between."""

    w1: ConvBn
    w2: ConvBn


@dataclass
class SvgaBlockWeights:
    grapher: GrapherWeights
    ffn: FfnWeights
    k: int


def block_convs(c: int, ffn_ratio: int) -> tuple[tuple[str, ConvSpec], ...]:
    """The convs of an SVGA block of width c, as (path inside
    SvgaBlockWeights, spec) pairs in the order the block applies them."""
    return (
        ("grapher.w_in", ConvSpec(c, c, (1, 1))),
        ("grapher.proj", ConvSpec(2 * c, 2 * c, (1, 1))),
        ("grapher.w_out", ConvSpec(2 * c, c, (1, 1))),
        ("ffn.w1", ConvSpec(c, ffn_ratio * c, (1, 1))),
        ("ffn.w2", ConvSpec(ffn_ratio * c, c, (1, 1))),
    )


def block_weights(convs: list[ConvBn], k: int) -> SvgaBlockWeights:
    """SvgaBlockWeights from its ConvBns, given in block_convs order."""
    return SvgaBlockWeights(grapher=GrapherWeights(*convs[:3]),
                            ffn=FfnWeights(*convs[3:]), k=k)


def grapher_forward(x: Array, weights: GrapherWeights, k: int) -> Array:
    t = conv_bn(x, weights.w_in)
    t = mrconv_roll(t, k, weights.proj)
    t = gelu(t)
    t = conv_bn(t, weights.w_out)
    return elem_add(t, x)


def ffn_forward(x: Array, weights: FfnWeights) -> Array:
    t = conv_bn(x, weights.w1)
    t = gelu(t)
    t = conv_bn(t, weights.w2)
    return elem_add(t, x)


def svga_block_forward(x: Array, weights: SvgaBlockWeights) -> Array:
    return ffn_forward(grapher_forward(x, weights.grapher, weights.k), weights.ffn)
