"""The benchmark's workloads: set-up from a seed, the timed op, and the
check of each op's output (run outside the timed region).

- fwd224_b1: one MobileViG-Ti forward pass at 224x224, batch 1, with
  weights loaded from an MVIG file during set-up.
- graph28: SVGA aggregation (k=2), then KNN graph construction (k=9) and
  KNN aggregation, on one (1, 256, 28, 28) map; no projection conv.
- verify_all: every property suite of `verify` at the workload seed.
- verify_nograd: every suite but the gradient check.

A verify op calls verify.run_suites once per suite (steps), so that the
benchmark can time each suite between two runs of its reference.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mobilevig import arch, grad_check, knn, svga, verify, weights_io

VARIANT = arch.get_variant("Ti")
FWD_SIZE = 224
# float32 logits against a float64 forward pass on the same weights, as a
# share of the largest float64 logit; measured error is about 5e-7
FWD_RTOL = 1e-3
GRAPH_SHAPE = (1, 256, 28, 28)
SVGA_K = 2
KNN_K = 9


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir, load_scope) -> context
    op: Callable     # context -> output; the timed call
    check: Callable  # (context, output) -> list of problems, empty when correct
    same: Callable   # (output, output) -> bool, bitwise equality
    parts: Callable = lambda out: {}  # output -> {part name: ns} timed inside the op
    # context -> the zero-argument calls that make up one op, in order; their
    # list outputs, concatenated, are the op's output. None: the op is one call
    steps: Callable | None = None


# -- fwd224_b1 ----------------------------------------------------------------

@dataclass
class FwdContext:
    model: arch.ModelWeights
    x: np.ndarray
    ref64: np.ndarray
    first: np.ndarray


def fwd_setup(seed: int, workdir: Path, load_scope=contextlib.nullcontext) -> FwdContext:
    path = workdir / f"ti-seed{seed}-pid{os.getpid()}.mvig"
    weights_io.save_weights(str(path), arch.build_model(VARIANT, seed))
    try:
        with load_scope():
            model = weights_io.load_into_model(str(path), VARIANT)
    finally:
        path.unlink()
    x = (np.random.default_rng([seed, FWD_SIZE])
         .standard_normal((1, 3, FWD_SIZE, FWD_SIZE)).astype(np.float32))
    ref64 = arch.model_forward(x.astype(np.float64), model, VARIANT)
    first = arch.model_forward(x, model, VARIANT)
    return FwdContext(model, x, ref64, first)


def fwd_op(ctx: FwdContext) -> np.ndarray:
    return arch.model_forward(ctx.x, ctx.model, VARIANT)


def fwd_check(ctx: FwdContext, logits: np.ndarray) -> list[str]:
    problems = []
    if not np.all(np.isfinite(logits)):
        problems.append("logits are not all finite")
    err = float(np.max(np.abs(logits - ctx.ref64)))
    scale = float(np.max(np.abs(ctx.ref64)))
    if not err <= FWD_RTOL * scale:
        problems.append(f"logits differ from the float64 pass by {err:.3g} "
                        f"(limit {FWD_RTOL:g} x {scale:.3g})")
    if not np.array_equal(logits, ctx.first):
        problems.append("repeated input gave logits that differ bitwise")
    return problems


# -- graph28 ------------------------------------------------------------------

@dataclass
class GraphContext:
    x: np.ndarray
    graph: svga.FixedGraph


@dataclass
class GraphOutput:
    svga_xj: np.ndarray
    neighbor_idx: np.ndarray
    knn_xj: np.ndarray
    svga_ns: int
    knn_ns: int


def graph_setup(seed: int, workdir: Path, load_scope=contextlib.nullcontext) -> GraphContext:
    x = np.random.default_rng([seed, 28]).standard_normal(GRAPH_SHAPE).astype(np.float32)
    ctx = GraphContext(x, svga.build_fixed_offsets(x.shape[2], x.shape[3], SVGA_K))
    graph_op(ctx)
    return ctx


def graph_op(ctx: GraphContext) -> GraphOutput:
    t0 = time.perf_counter_ns()
    xj = svga.mrconv_aggregate(ctx.x, SVGA_K)
    t1 = time.perf_counter_ns()
    adj = knn.knn_graph(ctx.x, KNN_K)
    xk = knn.knn_aggregate(ctx.x, adj)
    t2 = time.perf_counter_ns()
    return GraphOutput(xj, adj.neighbor_idx, xk, t1 - t0, t2 - t1)


def _exact_sq_dists(f: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances f[rows] to f[cols], summed one channel at a time in
    ascending order from zero, which is the float64 sequence knn uses."""
    acc = np.zeros(np.broadcast(rows, cols).shape)
    for ch in range(f.shape[1]):
        diff = f[rows, ch] - f[cols, ch]
        acc += diff * diff
    return acc


def knn_problems(x: np.ndarray, idx: np.ndarray, k: int, spare: int = 4) -> list[str]:
    """Checks that each node's neighbour list is its k nearest other nodes by
    float64 distance, ordered by distance with ties to the lower index.

    A fast Gram-matrix distance picks k + spare candidates per node; exact
    distances decide among them. A node whose candidates could miss a true
    neighbour (the Gram error bound is too wide) is checked against all nodes.
    """
    n, c, h, w = x.shape
    if idx.shape != (n, h * w, k):
        return [f"neighbour index shape {idx.shape} != {(n, h * w, k)}"]
    problems = []
    for b in range(n):
        f = x[b].reshape(c, h * w).T.astype(np.float64)
        num = f.shape[0]
        sq = np.einsum("ij,ij->i", f, f)
        approx = sq[:, None] + sq[None, :] - 2.0 * (f @ f.T)
        np.fill_diagonal(approx, np.inf)
        tol = 1e-9 * 2.0 * float(sq.max())
        m = min(k + spare, num - 1)
        rows = np.arange(num)[:, None]
        cand = np.argpartition(approx, m - 1, axis=1)[:, :m]
        exact = _exact_sq_dists(f, rows, cand)
        order = np.lexsort((cand, exact), axis=1)
        want = np.take_along_axis(cand, order, axis=1)[:, :k]
        kth = np.take_along_axis(exact, order, axis=1)[:, k - 1]
        outside = np.take_along_axis(approx, cand, axis=1).max(axis=1) - tol
        if m < num - 1:
            for i in np.flatnonzero(~(outside > kth)):
                full = _exact_sq_dists(f, np.array([i]), np.arange(num))
                full[i] = np.inf
                want[i] = np.lexsort((np.arange(num), full))[:k]
        bad = np.flatnonzero(np.any(want != idx[b], axis=1))
        if bad.size:
            i = int(bad[0])
            problems.append(f"batch {b}: {bad.size} nodes have wrong neighbours, e.g. node "
                            f"{i}: got {idx[b, i].tolist()}, want {want[i].tolist()}")
    return problems


def knn_aggregate_reference(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    nodes = x.transpose(0, 2, 3, 1).reshape(n, h * w, c)
    gathered = np.stack([nodes[b][idx[b]] for b in range(n)])  # (n, nodes, k, c)
    xj = np.maximum(np.max(nodes[:, :, None, :] - gathered, axis=2), 0)
    return xj.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def graph_check(ctx: GraphContext, out: GraphOutput) -> list[str]:
    problems = []
    if not np.array_equal(out.svga_xj, svga.gather_aggregate(ctx.x, ctx.graph)):
        problems.append("mrconv_aggregate differs bitwise from gather_aggregate")
    problems += knn_problems(ctx.x, out.neighbor_idx, KNN_K)
    if not np.array_equal(
            out.knn_xj, knn_aggregate_reference(ctx.x, out.neighbor_idx)):
        problems.append("knn_aggregate differs bitwise from the gathered max-relative reference")
    return problems


def graph_same(a: GraphOutput, b: GraphOutput) -> bool:
    return (np.array_equal(a.svga_xj, b.svga_xj)
            and np.array_equal(a.neighbor_idx, b.neighbor_idx)
            and np.array_equal(a.knn_xj, b.knn_xj))


# -- verify_all and verify_nograd ---------------------------------------------

def suites_workload(name: str, suites: tuple[str, ...]) -> Workload:
    """One op is verify.run_suites(suites, seed); the check is that every
    PropertyResult is ok."""

    def setup(seed: int, workdir: Path, load_scope=contextlib.nullcontext) -> int:
        # warm-up: each suite's code paths on a reduced case set
        if "oracle" in suites:
            verify.run_oracle_suite(seed, seeds_per_case=1)
        if "equivariance" in suites:
            verify.run_equivariance_suite(seed, weight_seeds=1)
        if "grad" in suites:
            grad_check.grad_check_svga((1, 2, 3, 5), 2, seed)
        if "knn" in suites:
            verify.run_knn_suite(seed, seeds=6)
        return seed

    def op(seed: int) -> list[verify.PropertyResult]:
        return verify.run_suites(list(suites), seed)

    def check(seed: int, results: list[verify.PropertyResult]) -> list[str]:
        if len(results) != len(suites):
            return [f"{len(results)} suite results for {len(suites)} suites"]
        return [f"{r.name}: {r.detail}" for r in results if not r.ok]

    def same(a, b) -> bool:
        # detail strings carry a measured cost ratio, so they are not compared
        return [(r.name, r.ok, r.counterexample) for r in a] == \
            [(r.name, r.ok, r.counterexample) for r in b]

    def steps(seed: int) -> list[Callable]:
        return [lambda s=s: verify.run_suites([s], seed) for s in suites]

    return Workload(name, setup, op, check, same, steps=steps)


WORKLOADS = {
    "fwd224_b1": Workload("fwd224_b1", fwd_setup, fwd_op, fwd_check,
                          lambda a, b: np.array_equal(a, b)),
    "graph28": Workload("graph28", graph_setup, graph_op, graph_check, graph_same,
                        lambda out: {"svga_agg": out.svga_ns, "knn_agg": out.knn_ns}),
    # every suite; the grad suite's linear-subnet check fails at most seeds
    # (error just above its 1e-8 tolerance), so BENCHMARK.json lists only
    # verify_nograd, which runs every other suite
    "verify_all": suites_workload("verify_all", tuple(verify.SUITES)),
    "verify_nograd": suites_workload(
        "verify_nograd", tuple(s for s in verify.SUITES if s != "grad")),
}
