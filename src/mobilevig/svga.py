"""Sparse vision graph attention: fixed row/column graphs, the max-relative
aggregation X_j by shifted window minima (the roll path), an explicit-gather
oracle for it, and the Grapher / FFN / SVGA block built on top.

The roll path and the gather oracle must agree bitwise on finite inputs.
The oracle folds max(x - y) over each (pixel, neighbour) pair from zeros;
the roll path computes max(x - m, +0) with m the minimum over the pixel's
neighbourhood, itself included. Float subtraction is correctly rounded and
monotone, so max_y fl(x - y) = fl(x - min_y y) bit for bit, and min is
exact in any order. Infinities are outside the contract. The oracle's fold
has no self term, so with finite neighbours it gives inf at a +inf pixel
and 0 at a -inf pixel. The roll path gives inf and NaN there (x - m with
m = -inf), and a literal fold over fold_shifts, whose self term is
inf - inf, gives NaN at both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    Array,
    ConvBn,
    ConvSpec,
    _check_nchw,
    concat_channels,
    conv_bn,
    elem_add,
    gelu,
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
    row_offsets: tuple[int, ...]
    col_offsets: tuple[int, ...]


def build_fixed_offsets(h: int, w: int, k: int) -> FixedGraph:
    """Offsets {m*k : m >= 1, m*k < bound} for each image axis."""
    if not (h >= 1 and w >= 1):
        raise ValueError("grid dims must be >= 1")
    if k < 1:
        raise ValueError(f"connection stride k must be >= 1, got {k}")
    return FixedGraph(h=h, w=w,
                      row_offsets=tuple(range(k, w, k)),
                      col_offsets=tuple(range(k, h, k)))


def fold_shifts(h: int, w: int, k: int) -> list[tuple[int, int]]:
    """The (down, right) rolls that define X_j = max_s (x - roll(x, s)):
    downward by m*k while m*k < h, then rightward by m*k while m*k < w, each
    from m = 0. mrconv_aggregate takes the minimum over exactly these
    windows; the grad checker's forward-and-backward function and its exact
    loss fold over them in this order."""
    if k < 1:
        raise ValueError(f"connection stride k must be >= 1, got {k}")
    return [(m * k, 0) for m in range(0, -(-h // k))] + \
           [(0, m * k) for m in range(0, -(-w // k))]


def _window_min(x: Array, axis: int, k: int, bufs: tuple[Array, Array]) -> Array:
    """min over m in [0, M) of roll(x, m*k) along `axis`, M = ceil(L / k):
    each pixel's neighbourhood along that axis, itself included. x and the
    two buffers are C-contiguous and of one shape.

    Log-step doubling: W_2w = min(W_w, roll(W_w, w*k)) while 2w <= M, then
    min(W_w, roll(W_w, (M - w)*k)) covers [0, w) and [M - w, M), which is
    [0, M) because min is idempotent. Each roll is two slice pairs written
    alternately into the buffers: one shift of the whole flat array, right
    everywhere except where the roll wraps, then the wrapped lines. The
    result is x itself when M == 1.
    """
    length = x.shape[axis]
    lines = (math.prod(x.shape[:axis]), length, math.prod(x.shape[axis + 1:]))
    span = -(-length // k)
    covered = 1  # cur is the min over shifts m*k, m in [0, covered)
    cur = x
    while covered < span:
        s = (covered if 2 * covered <= span else span - covered) * k
        out = bufs[1] if cur is bufs[0] else bufs[0]
        flat, flat_out = cur.reshape(-1), out.reshape(-1)
        d = s * lines[2]
        np.minimum(flat[d:], flat[:-d], out=flat_out[d:])
        cur3, out3 = cur.reshape(lines), out.reshape(lines)
        np.minimum(cur3[:, :s], cur3[:, length - s:], out=out3[:, :s])
        cur = out
        covered = min(2 * covered, span)
    return cur


def mrconv_aggregate(x: Array, k: int) -> Array:
    """Max-relative feature map X_j = max over fold_shifts of x - roll(x, s),
    computed as max(x - m, +0) with m the minimum over each pixel's
    neighbourhood.

    Subtraction is correctly rounded and monotone, so for finite inputs
    max_s fl(x - y_s) = fl(x - min_s y_s) bit for bit; the (0, 0) shift puts
    the pixel itself in the neighbourhood, so x - m >= 0. The clamp, with
    +0 as the second operand (np.maximum returns it on a tie), turns a -0
    difference into the +0 that folding from zeros gives. NaN propagates.
    The column and row windows are taken by _window_min in O(log(h / k))
    and O(log(w / k)) passes.
    """
    _check_nchw(x)
    if k < 1:
        raise ValueError(f"connection stride k must be >= 1, got {k}")
    x = np.ascontiguousarray(x)
    p, q, xj = (np.empty(x.shape, x.dtype) for _ in range(3))
    cols = _window_min(x, 2, k, (p, q))
    spare = q if cols is p else p
    rows = _window_min(x, 3, k, (spare, xj))
    m = np.minimum(cols, rows, out=xj if rows is spare else spare)
    np.subtract(x, m, out=xj)
    return np.maximum(xj, xj.dtype.type(0), out=xj)


def gather_aggregate(x: Array, graph: FixedGraph) -> Array:
    """X_j by explicit neighbor gather over the fixed graph.

    For each pixel p the neighbors are looked up through index tables built
    from the offset lists, and max(x - neighbor) is folded from zeros,
    column offsets ascending, then row offsets ascending: three passes per
    neighbour (gather, subtract, max), independent of mrconv_aggregate's
    window minima. Each neighbour is gathered into one scratch buffer and
    the difference is written over it; the operands keep the order of
    max(x - neighbor, acc), so NaN and zero signs come out as that fold's.
    The input is not modified.
    """
    _check_nchw(x)
    h, w = x.shape[2], x.shape[3]
    if not (graph.h == h and graph.w == w):
        raise ValueError(f"graph is {graph.h}x{graph.w} but input is {h}x{w}")
    xj = np.zeros(x.shape, x.dtype)
    buf = np.empty(x.shape, x.dtype)
    # the indices are in range by construction, so "clip" never clips; it
    # lets take write straight into buf
    for axis, offsets, length in ((2, graph.col_offsets, h), (3, graph.row_offsets, w)):
        for off in offsets:
            np.take(x, (np.arange(length) - off) % length, axis=axis, out=buf, mode="clip")
            np.subtract(x, buf, out=buf)
            np.maximum(buf, xj, out=xj)
    return xj


FFN_RATIO = 4  # FFN hidden width over block width


def block_convs(c: int) -> tuple[tuple[str, ConvSpec], ...]:
    """The convs of an SVGA block of width c, as (name, spec) pairs in the
    order the block applies them: the Grapher's w_in, proj and w_out, then
    the FFN's w1 and w2. A block's weights are the tuple of its ConvBns in
    this order."""
    return (
        ("grapher.w_in", ConvSpec(c, c, (1, 1))),
        ("grapher.proj", ConvSpec(2 * c, 2 * c, (1, 1))),
        ("grapher.w_out", ConvSpec(2 * c, c, (1, 1))),
        ("ffn.w1", ConvSpec(c, FFN_RATIO * c, (1, 1))),
        ("ffn.w2", ConvSpec(FFN_RATIO * c, c, (1, 1))),
    )


def grapher_forward(x: Array, convs: tuple[ConvBn, ...], k: int) -> Array:
    """Pointwise in-projection, max-relative graph conv (concat(t, X_j)
    through a 1x1 projection), pointwise out-projection. The residual is the
    raw block input."""
    w_in, proj, w_out = convs
    t = conv_bn(x, w_in)
    t = conv_bn(concat_channels(t, mrconv_aggregate(t, k)), proj)
    gelu(t, out=t)
    t = conv_bn(t, w_out)
    return elem_add(t, x, out=t)


def ffn_forward(x: Array, convs: tuple[ConvBn, ...]) -> Array:
    """Two pointwise layers with a GeLU between."""
    w1, w2 = convs
    t = conv_bn(x, w1)
    gelu(t, out=t)
    t = conv_bn(t, w2)
    return elem_add(t, x, out=t)


def svga_block_forward(x: Array, convs: tuple[ConvBn, ...], k: int) -> Array:
    """One SVGA block: its five ConvBns in block_convs order, stride k."""
    return ffn_forward(grapher_forward(x, convs[:3], k), convs[3:])
