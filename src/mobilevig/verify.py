"""Property suites behind the `verify` command.

Each suite returns PropertyResult records; a failing record carries a
minimal counterexample (the case parameters plus the first mismatch) so a
failure can be reproduced directly. No check reads the clock (the knn
cost check reads traced allocation), so one tree and seed give one result.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .grad_check import grad_check_svga, random_block_weights
from .knn import adjacency_from_fixed_graph, knn_aggregate, knn_graph
from .svga import build_fixed_offsets, gather_aggregate, mrconv_aggregate, svga_block_forward
from .tensor_core import Array

ORACLE_DIMS = (1, 2, 4, 7, 8, 14)
ORACLE_KS = (1, 2, 3, 5)
ORACLE_CHANNELS = (1, 3, 16)
ORACLE_IMAGES = 100

EQUIVARIANCE_GRIDS = ((8, 8), (7, 7))
EQUIVARIANCE_SEEDS = 20
EQUIVARIANCE_CHANNELS = 16
EQUIVARIANCE_K = 2

GRAD_TOL = 1e-4
GRAD_LINEAR_TOL = 1e-8

KNN_SEEDS = 50
KNN_GRIDS = ((3, 3), (4, 4), (5, 7), (8, 8), (9, 3), (16, 16))


@dataclass
class PropertyResult:
    name: str
    ok: bool
    detail: str
    counterexample: dict = field(default_factory=dict)


def _first_mismatch(a: Array, b: Array) -> dict:
    """{} when a and b hold the same bit patterns (so +0 and -0 differ, as do
    NaN payloads), else the first index where they differ, the values there
    and the number of differing elements."""
    bits = np.dtype(f"u{a.dtype.itemsize}")
    differ = a.view(bits) != b.view(bits)
    if not differ.any():  # argwhere alone costs about ten times as much
        return {}
    where = np.argwhere(differ)
    idx = tuple(int(v) for v in where[0])
    return {"index": idx, "lhs": float(a[idx]), "rhs": float(b[idx]),
            "mismatches": int(where.shape[0])}


def run_oracle_suite(seed: int = 0, seeds_per_case: int = ORACLE_IMAGES) -> PropertyResult:
    """Roll-based vs gather-based X_j, bit for bit, over a dim/k/c grid.

    Each (h, w, k, c) case draws seeds_per_case images (a count of images,
    not seeds) as the first draw of a generator keyed (seed, h, w, k, c),
    so a smaller count sees the first images of a larger one.
    mrconv_aggregate and gather_aggregate must give the same float32 bit
    patterns, zero signs included. The Grapher's projection after the
    aggregation is one conv_bn call and could only repeat this verdict, so
    it is not applied. A counterexample's lhs and rhs are X_j values at
    index (index[0] is the image), and mismatches counts the differing bit
    patterns."""
    cases = 0
    for h in ORACLE_DIMS:
        for w in ORACLE_DIMS:
            for k in ORACLE_KS:
                for c in ORACLE_CHANNELS:
                    rng = np.random.default_rng([seed, h, w, k, c])
                    x = rng.standard_normal((seeds_per_case, c, h, w)).astype(np.float32)
                    got = mrconv_aggregate(x, k)
                    want = gather_aggregate(x, build_fixed_offsets(h, w, k))
                    cases += 1
                    mismatch = _first_mismatch(got, want)
                    if mismatch:
                        ce = {"h": h, "w": w, "k": k, "c": c, "seed": seed, **mismatch}
                        return PropertyResult(
                            "oracle-equivalence", False,
                            f"mismatch at h={h} w={w} k={k} c={c}", ce)
    return PropertyResult(
        "oracle-equivalence", True,
        f"{cases} (h,w,k,c) cases x {seeds_per_case} images, all bitwise equal")


def _all_rolls(x: Array) -> Array:
    """Every circular shift of the one image in x as one (h*w, c, h, w)
    batch, image i shifted by (i // w, i % w): one gather with roll_2d's
    index formula, out[i, :, a, b] = x[0, :, (a - d) mod h, (b - e) mod w]."""
    _, _, h, w = x.shape
    d, e = np.divmod(np.arange(h * w), w)
    rows = (np.arange(h) - d[:, None]) % h
    cols = (np.arange(w) - e[:, None]) % w
    return np.ascontiguousarray(
        x[0][:, rows[:, :, None], cols[:, None, :]].transpose(1, 0, 2, 3))


def run_equivariance_suite(seed: int = 0,
                           weight_seeds: int = EQUIVARIANCE_SEEDS) -> PropertyResult:
    """svga_block_forward commutes with every circular shift, bitwise.

    Each (grid, weight seed) runs two block forwards: one on the input x,
    and one on the batch of all h*w shifts of x in row-major shift order.
    The batch output must equal the matching shifts of the first output.
    This relies on the batch-repacking contract (an image's result does not
    depend on the batch it runs in), so the suite checks that contract too:
    a block whose output depends on an image's batch position fails, as
    does one that is not equivariant. A failure reports the first failing
    shift in row-major order."""
    c = EQUIVARIANCE_CHANNELS
    checked = 0
    for h, w in EQUIVARIANCE_GRIDS:
        for s in range(weight_seeds):
            rng = np.random.default_rng([seed, h, w, s])
            weights = random_block_weights(c, rng, dtype=np.float32)
            x = rng.standard_normal((1, c, h, w)).astype(np.float32)
            base = svga_block_forward(x, weights, EQUIVARIANCE_K)
            lhs = svga_block_forward(_all_rolls(x), weights, EQUIVARIANCE_K)
            rhs = _all_rolls(base)
            checked += h * w
            mismatch = _first_mismatch(lhs, rhs)
            if mismatch:
                i = mismatch["index"][0]
                d, e = divmod(i, w)
                ce = {"h": h, "w": w, "c": c, "weight_seed": s,
                      "shift": [d, e], "seed": seed}
                ce.update(_first_mismatch(lhs[i:i + 1], rhs[i:i + 1]))
                return PropertyResult(
                    "translation-equivariance", False,
                    f"shift ({d},{e}) broke equivariance on {h}x{w}", ce)
    return PropertyResult(
        "translation-equivariance", True,
        f"{checked} shift checks across {weight_seeds} weight seeds, all bitwise")


def run_grad_suite(seed: int = 0) -> PropertyResult:
    """Analytic vs finite-difference gradients through a full SVGA block."""
    results = []
    for shape, k in (((1, 4, 4, 4), 2), ((1, 2, 3, 5), 2), ((1, 4, 4, 4), 3)):
        err = grad_check_svga(shape, k, seed)
        results.append((f"full block {shape} k={k}", err, GRAD_TOL))
    lin_err = grad_check_svga((1, 4, 4, 4), 2, seed, identity_act=True)
    results.append(("linear subnet (identity activation)", lin_err, GRAD_LINEAR_TOL))
    detail = "; ".join(f"{name}: {err:.3g}" for name, err, _ in results)
    failing = [r for r in results if not r[1] < r[2]]  # a NaN error fails
    if failing:
        name, err, tol = max(failing, key=lambda r: math.inf if math.isnan(r[1]) else r[1] / r[2])
        return PropertyResult("gradient-check", False,
                              f"{name} error {err:.3g}, not below {tol:g}",
                              {"case": name, "error": err, "tol": tol, "seed": seed})
    return PropertyResult("gradient-check", True, detail)


def knn_exact_reference(features: Array, k: int) -> Array:
    """Exact k nearest neighbours of each row of an (n, c) feature array,
    ties to the lower index.

    Squared distances are summed in float64 one channel at a time, in
    ascending channel order from zeros: each pair gets the same rounding
    sequence as a scalar s += d * d loop. The diagonal is +inf and each
    row is stably argsorted, so equal distances keep index order. This is
    written independently of knn.pairwise_sq_dists, the code under test.
    """
    f = np.asarray(features, dtype=np.float64)
    d = np.zeros((f.shape[0], f.shape[0]))
    for col in f.T:
        diff = col[:, None] - col[None, :]
        d += diff * diff
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1, kind="stable")[:, :k]


def run_knn_suite(seed: int = 0, seeds: int = KNN_SEEDS) -> PropertyResult:
    """knn_graph vs knn_exact_reference on `seeds` exact-reference cases
    (50 by default), plus the fixed-adjacency bridge to the gather oracle
    and a check that graph construction's traced peak memory grows faster
    than the node count (_knn_peak_bytes).

    The bridge runs knn_aggregate over the fixed graph's explicit adjacency
    and gather_aggregate over the graph itself; the two X_j must give the
    same float32 bit patterns. A counterexample's lhs and rhs are X_j
    values, and mismatches counts the differing bit patterns."""
    for s in range(seeds):
        h, w = KNN_GRIDS[s % len(KNN_GRIDS)]
        c = (1, 3, 4)[s % 3]
        k = min(1 + s % 8, h * w - 1)
        rng = np.random.default_rng([seed, s])
        x = rng.standard_normal((1, c, h, w)).astype(np.float32)
        if s % 5 == 0:
            # force distance ties: a few duplicated feature columns
            flat = x.reshape(c, h * w)
            flat[:, : min(3, h * w)] = flat[:, :1]
        adj = knn_graph(x, k)
        feats = x.transpose(0, 2, 3, 1).reshape(h * w, c)
        ref = knn_exact_reference(feats, k)
        if not np.array_equal(adj.neighbor_idx[0], ref):
            bad = np.argwhere(adj.neighbor_idx[0] != ref)[0]
            return PropertyResult(
                "knn-brute-force", False,
                f"neighbor mismatch at case {s} (grid {h}x{w}, c={c}, k={k})",
                {"case_seed": s, "h": h, "w": w, "c": c, "k": k,
                 "node": int(bad[0]), "slot": int(bad[1]),
                 "got": int(adj.neighbor_idx[0][bad[0], bad[1]]),
                 "want": int(ref[bad[0], bad[1]]), "seed": seed})

    for h, w, k in ((4, 4, 2), (7, 7, 2), (8, 8, 3)):
        rng = np.random.default_rng([seed, h, w, k])
        x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
        graph = build_fixed_offsets(h, w, k)
        via_adj = knn_aggregate(x, adjacency_from_fixed_graph(graph, 2))
        mismatch = _first_mismatch(via_adj, gather_aggregate(x, graph))
        if mismatch:
            ce = {"h": h, "w": w, "k": k, "seed": seed, **mismatch}
            return PropertyResult(
                "knn-fixed-adjacency", False,
                f"adjacency path diverged from gather oracle at {h}x{w} k={k}", ce)

    small, big = _knn_peak_bytes(seed)
    # 14x14 has 4x the nodes of 7x7: memory linear in the node count grows
    # about 4x, the N x N Gram and argpartition buffers 16x; 8 is the
    # geometric middle of the two
    if big <= 8 * small:
        return PropertyResult(
            "knn-cost-growth", False,
            "14x14 vs 7x7 graph construction traced peak ratio not above 8",
            {"ratio": big / small, "peak_7x7_bytes": small, "peak_14x14_bytes": big,
             "seed": seed})
    return PropertyResult(
        "knn-graph", True,
        f"{seeds} exact-reference cases exact; fixed-adjacency bitwise; "
        "traced peak ratio > 8")


def traced_peaks(steps: Callable[[], Iterator]) -> list[int]:
    """Each item's peak in one walk of steps()'s iterator: the most bytes
    tracemalloc traced while its step ran, above those traced just before.
    steps is called after tracing starts; tracing stops after the walk, or,
    if it was on (PYTHONTRACEMALLOC), stays on with its peak reset."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        items = steps()
        peaks = []
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in items:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        return peaks
    finally:
        if started:
            tracemalloc.stop()


def _knn_peak_bytes(seed: int) -> tuple[int, int]:
    """traced_peaks of one knn_graph(x, 9) call on a seeded 7x7 and a 14x14
    map, c = 16. Each map runs once first, so the first call's OpenBLAS
    lookup stays out."""
    rng = np.random.default_rng([seed, 14])
    maps = [rng.standard_normal((1, 16, s, s)).astype(np.float32) for s in (7, 14)]
    for x in maps:
        knn_graph(x, 9)
    return tuple(traced_peaks(lambda: (knn_graph(x, 9) for x in maps)))


SUITES = {
    "oracle": run_oracle_suite,
    "equivariance": run_equivariance_suite,
    "grad": run_grad_suite,
    "knn": run_knn_suite,
}


def run_suites(names: list[str], seed: int = 0) -> list[PropertyResult]:
    return [SUITES[name](seed=seed) for name in names]
