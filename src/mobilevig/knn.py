"""KNN-graph baseline: per-image k-nearest-neighbour graphs over pixel
features and gather-based max-relative aggregation through an explicit
4D -> 3D -> 4D layout change. This is the mechanism the fixed-graph path
replaces, kept as the latency comparison target.

`knn_graph` ranks pixels the way ViG does, by the Gram form
|x|^2 - 2 x.x^T + |x|^2^T (one GEMM). A rounding bound on its distance to
the exact per-channel distances of `pairwise_sq_dists` certifies a row's top
k when each of the row's k + 1 smallest Gram values is more than twice the
bound above the one before, so the Gram order is the exact order. Rows the
gaps cannot certify are recomputed in full, so the neighbour lists are
bitwise those of a stable argsort over the full exact distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .svga import FixedGraph
from .tensor_core import Array, _matmul, _require

_U = 2.0 ** -53  # float64 unit roundoff
# Each underflowing product or FMA loses at most 2^-1075; the certificate
# allows for eight per channel (see knn_graph).
_UNDERFLOW = 2.0 ** -1072
# Above this squared norm a distance may overflow and no bound holds.
_SAFE_SQ = np.finfo(np.float64).max / 64


@dataclass
class KnnAdjacency:
    """Per-batch neighbor lists over flattened row-major pixel indices."""

    h: int
    w: int
    neighbor_idx: Array  # (batch, h*w, k) int64, self excluded

    @property
    def num_nodes(self) -> int:
        return self.h * self.w


def pairwise_sq_dists(features: Array, rows: Array | None = None) -> Array:
    """Squared Euclidean distances between rows of (nodes, c) features.

    Gives the distance from node `rows[...]` to every node, the index array
    broadcast against the row of all nodes (so `rows[:, None]` gives one full
    row per index); `rows` defaults to every node, the full (nodes, nodes)
    matrix. Accumulated one channel at a time in ascending channel order
    from zero, in float64, so each pair's distance is a fixed, reproducible
    scalar op sequence whichever rows are asked for. Non-finite results
    raise no floating-point warnings.
    """
    f = np.asarray(features, dtype=np.float64)
    rows = np.arange(f.shape[0])[:, None] if rows is None else rows
    d = np.zeros(np.broadcast_shapes(np.shape(rows), f.shape[:1]))
    diff = np.empty_like(d)
    # NaN, inf and overflowing features give NaN or inf distances, which
    # knn_graph ranks like any other value
    with np.errstate(invalid="ignore", over="ignore"):
        for col in np.ascontiguousarray(f.T):
            np.subtract(col[rows], col, out=diff)
            diff *= diff
            d += diff
    return d


def _gram_tolerance(sq: Array, c: int) -> float:
    """Bound on |Gram-form - exact-form| distance for features whose computed
    squared norms are `sq`; inf when the features are not all finite or
    large enough to overflow (np.max propagates NaN)."""
    smax = np.max(sq)
    if not smax <= _SAFE_SQ:
        return np.inf
    n = c + 2
    return 16.0 * (n * _U / (1.0 - n * _U)) * float(smax) + c * _UNDERFLOW


def knn_graph(x: Array, k: int) -> KnnAdjacency:
    """k nearest pixels per pixel in channel-feature space, self excluded.

    Distances are `pairwise_sq_dists`'s, and ties break toward the lower
    flat pixel index, as a stable argsort of each full row would order them.

    Per image: the Gram form G = |f_i|^2 + |f_j|^2 - 2 f_i.f_j (one GEMM,
    diagonal set to inf) gives each row's k + 1 smallest values by
    argpartition, sorted as s_0 <= ... <= s_k; the nodes of s_0 .. s_{k-1}
    are the row's neighbours when every gap passes fl(s_{j+1} - s_j) > 2 tol,
    j < k, where tol bounds |G - E| against the exact distance E:
    - rounding is monotone and 2 tol is exact, so a passing gap is a real
      gap: E_j <= s_j + tol < s_{j+1} - tol <= E_{j+1}, and the first k are
      in strict exact order, with no ties to break;
    - argpartition leaves every other node at G >= s_k, so its
      E >= s_k - tol > E_{k-1}. With k = nodes - 1, s_k is the diagonal's inf
      and there is no other node.
    A row that fails, and every row when the features are not all finite,
    is recomputed in full and argsorted.

    tol bounds |G - E| for any BLAS summation order, with or without FMA.
    With u = 2^-53, gamma_n = n u / (1 - n u), S_i the exact |f_i|^2 and
    D the exact distance, over c channels (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3):
    - each computed |f_i|^2 and f_i.f_j is within gamma_c of the sum of its
      terms' magnitudes, S_i and |f_i||f_j| <= (S_i + S_j) / 2;
    - adding the three terms of G in any order rounds twice, within
      gamma_2 of their magnitude sum <= 2 (1 + gamma_c) (S_i + S_j);
      so |G - D| <= 2 (gamma_c + gamma_2 (1 + gamma_c)) (S_i + S_j)
      <= 2 gamma_{c+2} (S_i + S_j);
    - E rounds each difference, each square and c - 1 adds of non-negative
      terms, so |E - D| <= gamma_{c+2} D <= 2 gamma_{c+2} (S_i + S_j);
    - hence |G - E| <= 8 gamma_{c+2} max S, and max S <= 2 max(computed
      |f|^2), which leaves a factor of about 2 to cover the rounding of tol
      itself: tol = 16 gamma_{c+2} max(computed |f|^2);
    - products that underflow add an absolute error of at most 2^-1075
      each, at most 3c of them in G and c in E, each grown by less than a
      factor 1.5 on its way to the total: 6c * 2^-1075 < c * 2^-1072.
    The bound assumes no overflow, which holds while max |f|^2 <= DBL_MAX/64.
    """
    _require(x.ndim == 4, "x must be (n, c, h, w)")
    n, c, h, w = x.shape
    num = h * w
    if not 1 <= k < num:
        raise ValueError(f"k must be in [1, {num}), got {k}")
    feats = x.transpose(0, 2, 3, 1).reshape(n, num, c)
    idx = np.empty((n, num, k), dtype=np.int64)
    for b in range(n):
        f = np.asarray(feats[b], dtype=np.float64)
        sq = np.einsum("ij,ij->i", f, f)
        tol = _gram_tolerance(sq, c)
        certified = np.zeros(num, dtype=bool)
        if tol < np.inf:
            g = _matmul(f, f.T)
            g *= -2.0
            g += sq[:, None]
            g += sq[None, :]
            np.fill_diagonal(g, np.inf)
            cand = np.argpartition(g, k, axis=1)[:, :k + 1]
            s = np.take_along_axis(g, cand, axis=1)
            del g
            order = np.argsort(s, axis=1)
            idx[b] = np.take_along_axis(cand, order[:, :k], axis=1)
            s = np.take_along_axis(s, order, axis=1)
            certified = np.all(np.diff(s, axis=1) > 2.0 * tol, axis=1)
        redo = np.flatnonzero(~certified)
        if redo.size:
            d = pairwise_sq_dists(f, rows=redo[:, None])
            d[np.arange(redo.size), redo] = np.inf
            idx[b, redo] = np.argsort(d, axis=1, kind="stable")[:, :k]
    return KnnAdjacency(h=h, w=w, neighbor_idx=idx)


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
    return KnnAdjacency(h=h, w=w, neighbor_idx=idx)


def knn_aggregate(x: Array, adj: KnnAdjacency) -> Array:
    """Max-relative features via the 3-D node layout and index gathers.

    Each slot's neighbours are gathered into one buffer and folded into a
    running minimum seeded with the node itself; then X_j = max(x - m, +0),
    which for finite inputs is bitwise the max over slots of x - neighbour
    folded from zeros (the arithmetic of svga.mrconv_aggregate). At a -inf
    node, or any non-finite node when k = 0, x - m is NaN where that fold
    gives 0. The 4D -> 3D and 3D -> 4D layout changes are materialized
    copies on purpose: they are part of the cost this baseline carries.

    Every index must lie in [0, h*w), or ValueError is raised: negative
    indices are rejected, not wrapped (no producer makes them). The whole
    index array is checked once, so the gathers skip numpy's per-call
    bounds check (mode="clip"), which would buffer each output.
    """
    n, c, h, w = x.shape
    _require(adj.h == h and adj.w == w,
             f"adjacency is {adj.h}x{adj.w} but input is {h}x{w}")
    _require(adj.neighbor_idx.shape[0] == n,
             f"adjacency batch {adj.neighbor_idx.shape[0]} != input batch {n}")
    idx = adj.neighbor_idx
    _require(idx.size == 0 or (idx.min() >= 0 and idx.max() < h * w),
             f"neighbour indices must be in [0, {h * w})")
    nodes = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, h * w, c)
    m = nodes  # the self term
    acc, gathered = np.empty_like(nodes), np.empty_like(nodes)
    for slot in range(idx.shape[2]):
        for b in range(n):
            np.take(nodes[b], idx[b, :, slot], axis=0, out=gathered[b], mode="clip")
        m = np.minimum(m, gathered, out=acc)
    xj = np.subtract(nodes, m, out=acc)
    np.maximum(xj, xj.dtype.type(0), out=xj)
    return np.ascontiguousarray(xj.reshape(n, h, w, c).transpose(0, 3, 1, 2))
