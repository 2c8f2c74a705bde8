import numpy as np
import pytest

from mobilevig import knn
from mobilevig.knn import (
    KnnAdjacency,
    adjacency_from_fixed_graph,
    knn_aggregate,
    knn_graph,
    mrconv_knn,
    pairwise_sq_dists,
)
from mobilevig.svga import build_fixed_offsets, mrconv_gather_oracle
from mobilevig.tensor_core import ConvSpec, concat_channels, conv_bn, identity_conv_bn
from mobilevig.verify import _knn_cost_ratio, knn_brute_force


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def rand_proj(in_c, out_c, seed=0):
    rng = np.random.default_rng(seed)
    spec = ConvSpec(in_c, out_c, (1, 1))
    return identity_conv_bn(spec, rng.standard_normal(spec.weight_shape()),
                            rng.standard_normal(out_c))


def full_sort_knn(x, k):
    """The brute-force graph: every pair's float64 distance summed one channel
    at a time from zero, self at inf, each full row stably argsorted."""
    n, c, h, w = x.shape
    feats = x.transpose(0, 2, 3, 1).reshape(n, h * w, c).astype(np.float64)
    out = []
    for f in feats:
        d = np.zeros((h * w, h * w))
        with np.errstate(invalid="ignore", over="ignore"):
            for ch in range(c):
                diff = f[:, ch, None] - f[None, :, ch]
                d += diff * diff
        np.fill_diagonal(d, np.inf)
        out.append(np.argsort(d, axis=1, kind="stable")[:, :k])
    return np.stack(out)


def assert_same_graph(x, k):
    got = knn_graph(x, k).neighbor_idx
    want = full_sort_knn(x, k)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_identical_pair_selects_each_other():
    # nodes 3 and 10 share a feature vector, everything else is far away
    x = np.zeros((1, 2, 4, 4), np.float32)
    flat = x.reshape(2, 16)
    rng = np.random.default_rng(1)
    flat[:] = rng.uniform(10, 100, size=(2, 16)).astype(np.float32)
    flat[:, 10] = flat[:, 3]
    adj = knn_graph(x, 1)
    assert adj.neighbor_idx[0, 3, 0] == 10
    assert adj.neighbor_idx[0, 10, 0] == 3


def test_coordinate_features_pick_grid_neighbors():
    h = w = 5
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    x = np.stack([rr, cc]).astype(np.float32)[None]  # features are (row, col)
    adj = knn_graph(x, 4)
    node = 2 * w + 2  # interior pixel (2, 2)
    up, left, right, down = node - w, node - 1, node + 1, node + w
    # all four at squared distance 1; tie-break orders them by flat index
    assert adj.neighbor_idx[0, node].tolist() == [up, left, right, down]


def test_identical_features_fall_back_to_index_order():
    x = np.ones((1, 3, 2, 3), np.float32)
    adj = knn_graph(x, 3)
    assert adj.neighbor_idx[0, 0].tolist() == [1, 2, 3]
    assert adj.neighbor_idx[0, 4].tolist() == [0, 1, 2]


def test_matches_brute_force_with_ties():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        h, w, c = rng.integers(2, 7), rng.integers(2, 7), rng.integers(1, 5)
        x = rng.standard_normal((1, c, h, w)).astype(np.float32)
        flat = x.reshape(c, h * w)
        flat[:, : min(2, h * w)] = flat[:, :1]  # inject a duplicate
        k = int(rng.integers(1, h * w - 1)) if h * w > 2 else 1
        adj = knn_graph(x, k)
        feats = x.transpose(0, 2, 3, 1).reshape(h * w, c)
        assert np.array_equal(adj.neighbor_idx[0], knn_brute_force(feats, k))


def test_distances_accumulate_per_channel():
    feats = np.array([[1.0, 2.0], [4.0, 6.0]], np.float32)
    d = pairwise_sq_dists(feats)
    assert d[0, 1] == d[1, 0] == 25.0
    assert d[0, 0] == 0.0


def test_distances_for_index_pairs_equal_full_matrix_entries():
    feats = rand((30, 40), seed=6)
    full = pairwise_sq_dists(feats)
    rows = np.array([[3], [0], [29]])
    cols = np.random.default_rng(7).integers(0, 30, size=(30, 5))
    assert np.array_equal(pairwise_sq_dists(feats, rows, cols[:3]), full[rows, cols[:3]])
    assert np.array_equal(pairwise_sq_dists(feats, cols=cols), full[np.arange(30)[:, None], cols])
    assert np.array_equal(pairwise_sq_dists(feats, rows=rows), full[rows[:, 0]])


@pytest.mark.parametrize("shape,k", [
    ((2, 16, 6, 7), 5),       # batch 2
    ((1, 8, 5, 6), 29),       # k = nodes - 1: every other node is a candidate
    ((1, 1, 8, 8), 9),        # one channel
    ((2, 3, 1, 2), 1),        # two nodes
    ((1, 256, 28, 28), 9),    # graph28's shape
], ids=["batch2", "k-all", "c1", "two-nodes", "28x28-c256"])
def test_fast_graph_matches_full_sort(shape, k):
    assert_same_graph(rand(shape, seed=sum(shape) + k), k)


def test_fast_graph_matches_full_sort_on_float64_input():
    x = np.random.default_rng(8).standard_normal((2, 12, 7, 7))
    assert_same_graph(x, 9)


def test_fast_graph_matches_full_sort_with_exact_ties():
    # few distinct one-channel values: most distances tie exactly, so the
    # order rests on the lower-index tie-break, over every other node
    x = np.random.default_rng(9).integers(0, 4, size=(1, 1, 5, 6)).astype(np.float32)
    for k in (1, 7, 29):
        assert_same_graph(x, k)


def test_fast_graph_matches_full_sort_at_planted_boundary_ties():
    # node j is B + e_j for a large common offset B: every pair is exactly 2
    # apart, while the Gram form's rounding (on norms near |B|^2) scatters
    # its ranking, so the candidate boundary cuts through the tie
    c, h, w = 40, 5, 7
    rng = np.random.default_rng(10)
    for _ in range(4):
        base = (1000 * rng.standard_normal(c)).astype(np.float32)
        feats = np.tile(base, (h * w, 1))
        feats[np.arange(h * w), rng.permutation(c)[:h * w]] += 1
        x = feats.T.reshape(1, c, h, w)
        for k in (1, 3, 9):
            assert_same_graph(x, k)


def test_fast_graph_matches_full_sort_at_rounding_near_ties():
    # node 0 sits at the origin and every other node at a permutation of one
    # vector: all are equally far from node 0 in exact arithmetic, and the
    # float64 channel-by-channel sums alone decide the order
    c, h, w = 256, 4, 6
    rng = np.random.default_rng(11)
    for _ in range(4):
        v = rng.standard_normal(c).astype(np.float32)
        feats = np.stack([np.zeros(c, np.float32)]
                         + [v[rng.permutation(c)] for _ in range(h * w - 1)])
        x = feats.T.reshape(1, c, h, w)
        for k in (1, 4, 10):
            assert_same_graph(x, k)


def test_constant_features_fall_back_on_every_row(monkeypatch):
    asked = []

    def spy(features, rows=None, cols=None):
        if rows is not None:
            asked.extend(np.ravel(rows).tolist())
        return pairwise_sq_dists(features, rows, cols)

    monkeypatch.setattr(knn, "pairwise_sq_dists", spy)
    x = np.full((1, 4, 5, 5), 3.0, np.float32)
    assert_same_graph(x, 6)
    assert sorted(asked) == list(range(25))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_features_match_full_sort(value):
    x = rand((2, 6, 5, 5), seed=12)
    x[0, 2, 1, 3] = value
    x[1, :, 4, 4] = value
    x[1, 0, 0, 0] = value
    for k in (1, 9, 24):
        assert_same_graph(x, k)


def test_overflowing_features_match_full_sort():
    x = np.random.default_rng(13).standard_normal((1, 5, 4, 4)) * 1e160
    assert_same_graph(x, 4)


def test_k_bounds_rejected():
    x = rand((1, 2, 3, 3))
    with pytest.raises(ValueError):
        knn_graph(x, 0)
    with pytest.raises(ValueError):
        knn_graph(x, 9)


def test_fixed_adjacency_matches_gather_oracle():
    for h, w, k, seed in ((8, 8, 2, 0), (7, 7, 2, 1), (5, 9, 3, 2)):
        x = rand((2, 3, h, w), seed)
        graph = build_fixed_offsets(h, w, k)
        proj = rand_proj(6, 3, seed=seed + 10)
        via_knn = mrconv_knn(x, adjacency_from_fixed_graph(graph, 2), proj)
        via_gather = mrconv_gather_oracle(x, graph, proj)
        assert np.array_equal(via_knn, via_gather)


def test_constant_input_gives_zero_relative_features():
    x = np.full((1, 2, 4, 4), 5.0, np.float32)
    adj = knn_graph(rand((1, 2, 4, 4), seed=3), 5)  # arbitrary adjacency
    assert np.all(knn_aggregate(x, adj) == 0.0)


def test_empty_adjacency_reduces_to_projection():
    x = rand((1, 2, 3, 3), seed=4)
    adj = KnnAdjacency(h=3, w=3, k=0, neighbor_idx=np.empty((1, 9, 0), np.int64))
    proj = rand_proj(4, 2, seed=5)
    want = conv_bn(concat_channels(x, np.zeros_like(x)), proj)
    assert np.array_equal(mrconv_knn(x, adj, proj), want)


def slot_fold(x, adj):
    """X_j as one gather, one subtract and one max per slot, folded from
    zeros: the definition knn_aggregate must match bitwise."""
    n, c, h, w = x.shape
    nodes = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, h * w, c)
    xj = np.zeros_like(nodes)
    for slot in range(adj.k):
        gathered = np.take_along_axis(nodes, adj.neighbor_idx[:, :, slot][:, :, None], axis=1)
        xj = np.maximum(nodes - gathered, xj)
    return np.ascontiguousarray(xj.reshape(n, h, w, c).transpose(0, 3, 1, 2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_aggregate_equals_slot_fold_bitwise(dtype, signed_zero_input, assert_bitwise):
    for h, w, c, k in ((7, 7, 16, 9), (5, 3, 7, 1), (4, 4, 5, 15), (1, 2, 3, 1), (9, 7, 33, 4)):
        x = signed_zero_input((2, c, h, w), dtype, seed=h * w + c + k)
        adj = knn_graph(x, k)
        assert_bitwise(knn_aggregate(x, adj), slot_fold(x, adj))


def test_aggregate_with_repeated_indices_equals_slot_fold(signed_zero_input, assert_bitwise):
    rng = np.random.default_rng(7)
    for h, w, c, k in ((4, 5, 3, 1), (7, 7, 9, 6), (3, 3, 33, 12)):
        x = signed_zero_input((2, c, h, w), np.float32, seed=k)
        # few distinct values, so rows repeat indices, the node itself included
        idx = rng.integers(0, 3, size=(2, h * w, k)) * (h * w // 3)
        adj = KnnAdjacency(h=h, w=w, k=k, neighbor_idx=idx.astype(np.int64))
        assert_bitwise(knn_aggregate(x, adj), slot_fold(x, adj))


def test_aggregate_propagates_nan_like_slot_fold(assert_bitwise):
    x = rand((2, 5, 6, 7), seed=11)
    adj = knn_graph(x, 4)
    x.reshape(-1)[[3, 101, 250, 419]] = np.nan
    got = knn_aggregate(x, adj)
    assert np.any(np.isnan(got))
    assert_bitwise(got, slot_fold(x, adj))


def test_adjacency_validation():
    x = rand((1, 2, 4, 4))
    adj = KnnAdjacency(h=5, w=4, k=1, neighbor_idx=np.zeros((1, 20, 1), np.int64))
    with pytest.raises(ValueError):
        knn_aggregate(x, adj)


def test_graph_construction_cost_grows_superlinearly():
    assert _knn_cost_ratio(seed=0) > 3.0
