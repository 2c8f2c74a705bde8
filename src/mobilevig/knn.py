"""KNN-graph baseline: per-image graph construction over pixel features and
gather-based max-relative aggregation through an explicit 4D -> 3D -> 4D
layout change. This is the mechanism the fixed-graph path replaces, kept as
the latency comparison target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .svga import FixedGraph, mrconv_project
from .tensor_core import Array, ConvBn, _require


@dataclass
class KnnAdjacency:
    """Per-batch neighbor lists over flattened row-major pixel indices."""

    h: int
    w: int
    k: int
    neighbor_idx: Array  # (batch, h*w, k) int64, self excluded

    @property
    def num_nodes(self) -> int:
        return self.h * self.w


def pairwise_sq_dists(features: Array) -> Array:
    """Squared Euclidean distances between rows of (nodes, c) features.

    Accumulated one channel at a time in ascending channel order, in
    float64, so each pair's distance is a fixed, reproducible scalar
    op sequence regardless of vectorization.
    """
    f = np.asarray(features, dtype=np.float64)
    n = f.shape[0]
    d = np.zeros((n, n))
    for ch in range(f.shape[1]):
        diff = f[:, ch, None] - f[None, :, ch]
        d += diff * diff
    return d


def knn_graph(x: Array, k: int) -> KnnAdjacency:
    """k nearest pixels per pixel in channel-feature space, self excluded.

    Distance ties break toward the lower flat pixel index.
    """
    _require(x.ndim == 4, "x must be (n, c, h, w)")
    n, c, h, w = x.shape
    num = h * w
    if not 1 <= k < num:
        raise ValueError(f"k must be in [1, {num}), got {k}")
    feats = x.transpose(0, 2, 3, 1).reshape(n, num, c)
    idx = np.empty((n, num, k), dtype=np.int64)
    for b in range(n):
        d = pairwise_sq_dists(feats[b])
        np.fill_diagonal(d, np.inf)
        order = np.argsort(d, axis=1, kind="stable")
        idx[b] = order[:, :k]
    return KnnAdjacency(h=h, w=w, k=k, neighbor_idx=idx)


def adjacency_from_fixed_graph(graph: FixedGraph, batch: int) -> KnnAdjacency:
    """FixedGraph connectivity as explicit index lists (column offsets first,
    then row offsets, both ascending, matching the gather-oracle fold order).
    """
    h, w = graph.h, graph.w
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    slots = []
    for off in graph.col_offsets:
        slots.append(((rows - off) % h) * w + cols)
    for off in graph.row_offsets:
        slots.append(rows * w + (cols - off) % w)
    if slots:
        per_image = np.stack([s.reshape(-1) for s in slots], axis=1)
    else:
        per_image = np.empty((h * w, 0), dtype=np.int64)
    idx = np.broadcast_to(per_image, (batch,) + per_image.shape).astype(np.int64)
    return KnnAdjacency(h=h, w=w, k=per_image.shape[1], neighbor_idx=idx)


def knn_aggregate(x: Array, adj: KnnAdjacency) -> Array:
    """Max-relative features via the 3-D node layout and index gathers.

    The 4D -> 3D and 3D -> 4D layout changes are materialized copies on
    purpose: they are part of the cost this baseline carries.
    """
    n, c, h, w = x.shape
    _require(adj.h == h and adj.w == w,
             f"adjacency is {adj.h}x{adj.w} but input is {h}x{w}")
    _require(adj.neighbor_idx.shape[0] == n,
             f"adjacency batch {adj.neighbor_idx.shape[0]} != input batch {n}")
    nodes = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, h * w, c)
    xj = np.zeros_like(nodes)
    for slot in range(adj.k):
        gathered = np.take_along_axis(
            nodes, adj.neighbor_idx[:, :, slot][:, :, None], axis=1)
        xj = np.maximum(nodes - gathered, xj)
    return np.ascontiguousarray(xj.reshape(n, h, w, c).transpose(0, 3, 1, 2))


def mrconv_knn(x: Array, adj: KnnAdjacency, proj: ConvBn) -> Array:
    """Gather-based max-relative graph convolution over a KNN adjacency."""
    return mrconv_project(x, knn_aggregate(x, adj), proj)
