"""Property suites behind the `verify` command.

Each suite returns PropertyResult records; a failing record carries a
minimal counterexample (the case parameters plus the first mismatch) so a
failure can be reproduced directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bench import percentiles_ns, time_once_ns
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
    # wall-clock readings, kept out of detail so that equal trees and seeds
    # give equal details
    measured: dict = field(default_factory=dict)


def _first_mismatch(a: Array, b: Array, differ: Array | None = None) -> dict:
    """The first index where a and b differ (by !=, or where the boolean
    array differ is set), their values there and the number of mismatches."""
    where = np.argwhere(a != b if differ is None else differ)
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
                    differ = got.view(np.uint32) != want.view(np.uint32)
                    if differ.any():
                        ce = {"h": h, "w": w, "k": k, "c": c, "seed": seed}
                        ce.update(_first_mismatch(got, want, differ))
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
            bad = np.flatnonzero((lhs != rhs).reshape(h * w, -1).any(axis=1))
            if bad.size:
                i = int(bad[0])
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
    and a graph-construction cost sanity bound.

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
        via_gather = gather_aggregate(x, graph)
        differ = via_adj.view(np.uint32) != via_gather.view(np.uint32)
        if differ.any():
            ce = {"h": h, "w": w, "k": k, "seed": seed}
            ce.update(_first_mismatch(via_adj, via_gather, differ))
            return PropertyResult(
                "knn-fixed-adjacency", False,
                f"adjacency path diverged from gather oracle at {h}x{w} k={k}", ce)

    small_ns, big_ns = _knn_cost_medians_ns(seed)
    ratio = big_ns / small_ns
    small_ms, big_ms = small_ns / 1e6, big_ns / 1e6
    if ratio <= 3.0:
        return PropertyResult(
            "knn-cost-growth", False,
            f"14x14 vs 7x7 graph construction ratio {ratio:.2f} <= 3 "
            f"(medians {big_ms:.3f} ms vs {small_ms:.3f} ms)",
            {"ratio": ratio, "median_7x7_ms": small_ms, "median_14x14_ms": big_ms,
             "seed": seed})
    return PropertyResult(
        "knn-graph", True,
        f"{seeds} exact-reference cases exact; fixed-adjacency bitwise; "
        "cost ratio > 3",
        measured={"ratio": ratio, "median_7x7_ms": small_ms, "median_14x14_ms": big_ms})


def _knn_cost_medians_ns(seed: int) -> tuple[int, int]:
    # median 7x7 and 14x14 knn_graph times; the two sizes alternate, so a
    # burst of host load slows samples of both rather than all of one
    rng = np.random.default_rng([seed, 14])
    c = 16
    small = rng.standard_normal((1, c, 7, 7)).astype(np.float32)
    big = rng.standard_normal((1, c, 14, 14)).astype(np.float32)
    steps = [partial(knn_graph, x, 9) for x in (small, big)]
    for step in steps:
        step()  # warm-up
    samples = ([], [])
    for _ in range(15):
        for step, times in zip(steps, samples):
            times.append(time_once_ns(step))
    return tuple(percentiles_ns(times)[0] for times in samples)


SUITES = {
    "oracle": run_oracle_suite,
    "equivariance": run_equivariance_suite,
    "grad": run_grad_suite,
    "knn": run_knn_suite,
}


def run_suites(names: list[str], seed: int = 0) -> list[PropertyResult]:
    return [SUITES[name](seed=seed) for name in names]
