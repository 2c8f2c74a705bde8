import tracemalloc

import numpy as np
import pytest

from mobilevig import bench, knn, verify
from mobilevig.knn import (
    KnnAdjacency,
    adjacency_from_fixed_graph,
    knn_aggregate,
    knn_graph,
    pairwise_sq_dists,
)
from mobilevig.svga import build_fixed_offsets, gather_aggregate
from mobilevig.verify import knn_exact_reference


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def full_sort_dists(x):
    """Every pair's float64 distance summed one channel at a time from zero,
    self at inf, per image."""
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
        out.append(d)
    return np.stack(out)


def full_sort_knn(x, k):
    """The brute-force graph: each full row of full_sort_dists stably
    argsorted."""
    return np.argsort(full_sort_dists(x), axis=2, kind="stable")[:, :, :k]


def assert_same_graph(x, k):
    got = knn_graph(x, k).neighbor_idx
    want = full_sort_knn(x, k)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def knn_brute_force(features, k):
    """Scalar O(n^2) nearest-neighbor ground truth with explicit tie-breaks:
    Python floats, s += d * d over channels, then a (distance, index) sort."""
    f = [[float(v) for v in row] for row in np.asarray(features, dtype=np.float64)]
    n = len(f)
    nc = len(f[0])
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        ranked = []
        fi = f[i]
        for j in range(n):
            if j == i:
                continue
            fj = f[j]
            s = 0.0
            for ch in range(nc):
                d = fi[ch] - fj[ch]
                s += d * d
            ranked.append((s, j))
        ranked.sort()
        out[i] = [j for _, j in ranked[:k]]
    return out


def assert_reference_is_brute_force(feats, k):
    got = knn_exact_reference(feats, k)
    want = knn_brute_force(feats, k)
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


@pytest.mark.parametrize("seed", range(4))
def test_exact_reference_is_brute_force_on_knn_suite_cases(seed):
    # the knn suite's 50 cases, drawn as run_knn_suite draws them, with the
    # duplicated columns of every fifth case
    for s in range(verify.KNN_SEEDS):
        h, w = verify.KNN_GRIDS[s % len(verify.KNN_GRIDS)]
        c = (1, 3, 4)[s % 3]
        k = min(1 + s % 8, h * w - 1)
        x = np.random.default_rng([seed, s]).standard_normal((1, c, h, w)).astype(np.float32)
        if s % 5 == 0:
            flat = x.reshape(c, h * w)
            flat[:, : min(3, h * w)] = flat[:, :1]
        assert_reference_is_brute_force(x.transpose(0, 2, 3, 1).reshape(h * w, c), k)


def test_exact_reference_is_brute_force_with_every_other_node():
    rng = np.random.default_rng(16)
    for n, c in ((2, 1), (9, 3), (30, 5)):
        feats = rng.integers(-2, 3, size=(n, c)).astype(np.float32)
        assert_reference_is_brute_force(feats, n - 1)
        assert_reference_is_brute_force(rng.standard_normal((n, c)), n - 1)


def test_exact_reference_is_brute_force_at_near_ties():
    # tiny spreads about a large common offset; rounded to float32 they
    # collapse onto a few values, so most distances tie exactly
    for seed in range(4):
        rng = np.random.default_rng([17, seed])
        c = int(rng.integers(1, 9))
        feats = 1e3 + 1e-4 * rng.standard_normal((40, c))
        for k in (1, 5, 39):
            assert_reference_is_brute_force(feats, k)
            assert_reference_is_brute_force(feats.astype(np.float32), k)
        # node 0 and every other node, a permutation of one small vector, are
        # equally far apart in exact arithmetic: only the summation order of
        # the rounded squares separates them
        v = 1e-4 * rng.standard_normal(16)
        feats = 1e3 + np.stack([np.zeros(16)] + [v[rng.permutation(16)] for _ in range(29)])
        for k in (1, 10, 29):
            assert_reference_is_brute_force(feats, k)


def test_distances_accumulate_per_channel():
    feats = np.array([[1.0, 2.0], [4.0, 6.0]], np.float32)
    d = pairwise_sq_dists(feats)
    assert d[0, 1] == d[1, 0] == 25.0
    assert d[0, 0] == 0.0


def test_distances_for_index_pairs_equal_full_matrix_entries():
    feats = rand((30, 40), seed=6)
    full = pairwise_sq_dists(feats)
    rows = np.array([[3], [0], [29]])
    assert np.array_equal(pairwise_sq_dists(feats, rows=rows), full[rows[:, 0]])
    # unordered and repeated rows, as the fallback could ask for them
    many = np.random.default_rng(7).integers(0, 30, size=(40, 1))
    assert np.array_equal(pairwise_sq_dists(feats, rows=many), full[many[:, 0]])


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


@pytest.fixture
def fallback_rows(monkeypatch):
    """The rows knn_graph recomputes in full, as pairwise_sq_dists sees them."""
    asked = []

    def spy(features, rows=None):
        if rows is not None:
            asked.extend(np.ravel(rows).tolist())
        return pairwise_sq_dists(features, rows)

    monkeypatch.setattr(knn, "pairwise_sq_dists", spy)
    return asked


def test_constant_features_fall_back_on_every_row(fallback_rows):
    x = np.full((1, 4, 5, 5), 3.0, np.float32)
    assert_same_graph(x, 6)
    assert sorted(fallback_rows) == list(range(25))


def test_random_features_certify_every_row(fallback_rows):
    knn_graph(rand((1, 256, 28, 28), seed=14), 9)
    assert fallback_rows == []


def test_planted_duplicates_fall_back_on_tied_rows_only(fallback_rows):
    # two pairs of nodes share features, so a row whose k + 1 nearest hold
    # both nodes of a pair has an exact tie the Gram gaps cannot order
    c, h, w, k = 16, 8, 8, 9
    x = rand((1, c, h, w), seed=15)
    flat = x.reshape(c, h * w)
    flat[:, 40] = flat[:, 3]
    flat[:, 11] = flat[:, 10]
    d = full_sort_dists(x)[0]
    nearest = np.sort(d, axis=1)[:, :k + 1]
    tied = np.flatnonzero(np.any(np.diff(nearest, axis=1) == 0, axis=1))
    assert 0 < tied.size < h * w
    assert_same_graph(x, k)
    assert sorted(fallback_rows) == tied.tolist()


def test_gram_rounding_reorders_near_ties(fallback_rows):
    # tiny spreads about a large common offset: distances differ by about
    # the Gram form's rounding error, which would reorder some rows if any
    # positive gap were taken as proof
    c, h, w = 8, 4, 5
    for seed in range(4):
        rng = np.random.default_rng(seed)
        base = 1000 * rng.standard_normal(c)
        x = (base[:, None] + 1e-4 * rng.standard_normal((c, h * w))).reshape(1, c, h, w)
        assert_same_graph(x, 3)
    assert fallback_rows


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


def test_fixed_adjacency_matches_gather_oracle(assert_bitwise):
    for h, w, k, seed in ((8, 8, 2, 0), (7, 7, 2, 1), (5, 9, 3, 2)):
        x = rand((2, 3, h, w), seed)
        graph = build_fixed_offsets(h, w, k)
        via_knn = knn_aggregate(x, adjacency_from_fixed_graph(graph, 2))
        assert_bitwise(via_knn, gather_aggregate(x, graph))


def test_constant_input_gives_zero_relative_features():
    x = np.full((1, 2, 4, 4), 5.0, np.float32)
    adj = knn_graph(rand((1, 2, 4, 4), seed=3), 5)  # arbitrary adjacency
    assert np.all(knn_aggregate(x, adj) == 0.0)


def test_empty_adjacency_gives_positive_zeros(assert_bitwise):
    x = rand((1, 2, 3, 3), seed=4)
    adj = KnnAdjacency(h=3, w=3, neighbor_idx=np.empty((1, 9, 0), np.int64))
    assert_bitwise(knn_aggregate(x, adj), np.zeros_like(x))


def slot_fold(x, adj):
    """X_j as one gather, one subtract and one max per slot, folded from
    zeros: the definition knn_aggregate must match bitwise."""
    n, c, h, w = x.shape
    nodes = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, h * w, c)
    xj = np.zeros_like(nodes)
    for slot in range(adj.neighbor_idx.shape[2]):
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
        adj = KnnAdjacency(h=h, w=w, neighbor_idx=idx.astype(np.int64))
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
    adj = KnnAdjacency(h=5, w=4, neighbor_idx=np.zeros((1, 20, 1), np.int64))
    with pytest.raises(ValueError):
        knn_aggregate(x, adj)


@pytest.mark.parametrize("bad", [16, 1000, -1, -16])
def test_aggregate_rejects_out_of_range_indices(bad):
    x = rand((2, 3, 4, 4))
    idx = np.zeros((2, 16, 2), np.int64)
    idx[1, 5, 1] = bad
    adj = KnnAdjacency(h=4, w=4, neighbor_idx=idx)
    with pytest.raises(ValueError, match=r"neighbour indices must be in \[0, 16\)"):
        knn_aggregate(x, adj)


@pytest.mark.wallclock
def test_graph_construction_cost_grows_superlinearly():
    # the wall-clock side of the knn suite's traced-peak check, on its maps
    rng = np.random.default_rng([0, 14])
    small, big = (rng.standard_normal((1, 16, s, s)).astype(np.float32) for s in (7, 14))
    times = bench.time_interleaved([lambda x=x: knn_graph(x, 9) for x in (small, big)],
                                   reps=15, warmup=1)
    small_ns, big_ns = (bench.percentiles_ns(t)[0] for t in times)
    assert big_ns / small_ns > 3.0


def test_cost_growth_failure_reports_both_peaks(monkeypatch):
    # 1000 bytes at 7x7 and 8000 at 14x14: ratio 8, not above the bound
    monkeypatch.setattr(verify, "_knn_peak_bytes", lambda seed: (1000, 8000))
    r = verify.run_knn_suite(seed=0, seeds=1)
    assert (r.name, r.ok) == ("knn-cost-growth", False)
    assert r.detail == "14x14 vs 7x7 graph construction traced peak ratio not above 8"
    assert r.counterexample == {"ratio": 8.0, "peak_7x7_bytes": 1000,
                                "peak_14x14_bytes": 8000, "seed": 0}


def test_cost_growth_pass_keeps_the_readings_out_of_the_detail(monkeypatch):
    # 1000 bytes at 7x7 and 8001 at 14x14: just above the bound
    monkeypatch.setattr(verify, "_knn_peak_bytes", lambda seed: (1000, 8001))
    r = verify.run_knn_suite(seed=0, seeds=1)
    assert (r.name, r.ok) == ("knn-graph", True)
    assert r.detail == ("1 exact-reference cases exact; fixed-adjacency bitwise; "
                        "traced peak ratio > 8")
    assert r.counterexample == {}


def test_peak_ratio_separates_quadratic_from_node_linear_graphs(monkeypatch):
    # knn_graph's N x N buffers grow 16x from 7x7 to 14x14; a graph
    # construction whose memory is linear in the node count grows about 4x
    small, big = verify._knn_peak_bytes(seed=0)
    assert big / small > 8

    def node_linear(x, k):
        n, c, h, w = x.shape
        feats = x.transpose(0, 2, 3, 1).reshape(n, h * w, c).astype(np.float64)
        return np.argsort(feats, axis=1)[..., :k]

    monkeypatch.setattr(verify, "knn_graph", node_linear)
    small, big = verify._knn_peak_bytes(seed=0)
    assert 2 < big / small < 8


@pytest.mark.parametrize("tracing", [False, True])
def test_peak_reading_does_not_depend_on_tracing_already_on(tracing):
    # the reading is the call's own peak above the bytes traced before it,
    # and tracing is left as it was found; with tracing already on, frees
    # of blocks traced earlier lower the reading by a few hundred bytes
    want = verify._knn_peak_bytes(seed=0)
    if tracing:
        tracemalloc.start()
    held = np.ones(1 << 20)  # 8 MB, traced when tracing is on
    try:
        got = verify._knn_peak_bytes(seed=0)
        assert tracemalloc.is_tracing() == tracing
        assert tracemalloc.get_traced_memory()[0] >= (held.nbytes if tracing else 0)
    finally:
        tracemalloc.stop()
    assert all(abs(g - w) <= w / 100 for g, w in zip(got, want)), (got, want)


def test_fixed_adjacency_bridge_compares_bit_patterns(monkeypatch):
    # -0 == +0, so only a compare of bit patterns sees this one flipped zero
    def one_zero_negated(x, adj):
        xj = knn_aggregate(x, adj)
        i = np.flatnonzero(xj == 0)[0]
        xj.flat[i] = -xj.flat[i]
        return xj

    monkeypatch.setattr(verify, "knn_aggregate", one_zero_negated)
    r = verify.run_knn_suite(seed=0, seeds=1)
    assert (r.name, r.ok) == ("knn-fixed-adjacency", False)
    assert r.detail == "adjacency path diverged from gather oracle at 4x4 k=2"
    ce = r.counterexample
    assert set(ce) == {"h", "w", "k", "seed", "index", "lhs", "rhs", "mismatches"}
    assert (ce["h"], ce["w"], ce["k"], ce["seed"], ce["mismatches"]) == (4, 4, 2, 0, 1)
    assert ce["lhs"] == ce["rhs"] == 0.0
    assert (np.signbit(ce["lhs"]), np.signbit(ce["rhs"])) == (True, False)
