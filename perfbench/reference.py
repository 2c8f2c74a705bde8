"""Fixed reference computations, timed beside a workload's ops, that gauge
how fast the shared machine runs at that moment.

On a few cores of a shared host the speed of the same numpy code drifts by
about +-20% over seconds and by up to 2x over an hour, with other tenants'
load on caches, memory and clock; an op's wall time and CPU time drift alike. Each workload has a
reference built from the same kinds of numpy and Python work as its op, at a
fixed size, that never calls the program. The benchmark runs it before the
first op and after every op (after every suite, on the verify workloads),
and divides each op's time by the mean time of the two reference runs beside
it: the quotient cancels most of the drift and moves only when the program's
op gets faster or slower.

The arrays are fixed (their own seed, not the workload's), so a reference
does the same work in every run. Each takes a third to two thirds of the
time of what it is timed beside.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

_RNG = np.random.default_rng(20230701)


def _normal(*shape, dtype=np.float32) -> np.ndarray:
    return _RNG.standard_normal(shape).astype(dtype)


# -- fwd224_b1: im2col + batched matvec, erf GeLU, depthwise taps, batch norm
_X = _normal(1, 42, 58, 58)
_W = _normal(42, 42 * 9)
_H = _normal(1, 168, 58, 58)
_TAPS = _normal(168, 9)


def fwd_reference() -> float:
    total = 0.0
    for _ in range(3):
        cols = np.ascontiguousarray(
            sliding_window_view(_X, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
        ).reshape(56 * 56, -1)
        dense = np.matmul(_W, cols[:, :, None])[:, :, 0]
        gelu = _H * (0.5 * (1.0 + erf(_H * np.float32(0.7071067811865476))))
        acc = None
        for ky in range(3):
            for kx in range(3):
                term = _H[:, :, ky:ky + 56, kx:kx + 56] * _TAPS[:, 3 * ky + kx].reshape(1, 168, 1, 1)
                acc = term if acc is None else acc + term
        norm = (acc - np.float32(0.1)) * np.float32(1.3) + np.float32(0.2)
        total += float(dense[0, 0] + gelu[0, 0, 0, 0] + norm[0, 0, 0, 0])
    return total


# -- graph28: the op's KNN path (float64 pairwise distances one channel at a
# time, stable row sorts, slot-by-slot gather-max) on half its channels
_GRAPH_X = _normal(1, 128, 28, 28)


def graph_reference() -> float:
    _, c, h, w = _GRAPH_X.shape
    nodes = np.ascontiguousarray(_GRAPH_X.transpose(0, 2, 3, 1)).reshape(h * w, c)
    f = nodes.astype(np.float64)
    d = np.zeros((h * w, h * w))
    for ch in range(c):
        diff = f[:, ch, None] - f[None, :, ch]
        d += diff * diff
    np.fill_diagonal(d, np.inf)
    idx = np.argsort(d, axis=1, kind="stable")[:, :9]
    xj = np.zeros_like(nodes)
    for slot in range(idx.shape[1]):
        xj = np.maximum(nodes - nodes[idx[:, slot]], xj)
    return float(xj[0, 0])


# -- verify_*: seeded generators per case, tiny-block forwards, scalar Python loops
_BLOCK_W = _normal(16, 16 * 9)
_BLOCK_X = _normal(1, 16, 8, 8)
_POINTS = [[float(v) for v in row] for row in _normal(180, 8, dtype=np.float64)]


def verify_reference() -> float:
    total = 0.0
    for case in range(80):
        x = np.stack([np.random.default_rng([case, s]).standard_normal((3, 7, 7))
                      .astype(np.float32) for s in range(100)])
        for dy in (1, 2, 3):
            x = np.maximum(x - np.roll(x, (dy, dy), axis=(2, 3)), 0) + x
        total += float(x.sum())
    for shift in range(960):
        x = np.roll(_BLOCK_X, (shift % 8, shift // 8 % 8), axis=(2, 3))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        cols = np.ascontiguousarray(
            sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
        ).reshape(64, -1)
        y = np.matmul(_BLOCK_W, cols[:, :, None])[:, :, 0]
        y = (y - np.float32(0.1)) * np.float32(1.3) + np.float32(0.2)
        y = y * (0.5 * (1.0 + erf(y * np.float32(0.7071067811865476))))
        total += float(y[0, 0])
    for fi in _POINTS:
        ranked = []
        for j, fj in enumerate(_POINTS):
            s = 0.0
            for a, b in zip(fi, fj):
                s += (a - b) * (a - b)
            ranked.append((s, j))
        ranked.sort()
        total += ranked[1][0]
    return total


# Set-up time is reported at a fixed machine speed: each set-up's wall time
# is scaled by SETUP_NOMINAL_S over the time fwd_reference takes right after
# it. SETUP_NOMINAL_S is about fwd_reference's time on an idle 2-vCPU Intel
# Xeon VM (numpy on one OpenBLAS thread), so setup_s reads close to wall
# seconds there, while the host's drift between runs is divided out.
SETUP_NOMINAL_S = 0.075


def setup_scale() -> float:
    fwd_reference()  # warm-up
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fwd_reference()
        times.append(time.perf_counter() - t0)
    return SETUP_NOMINAL_S / sorted(times)[1]


REFERENCES: dict[str, Callable[[], float]] = {
    "fwd224_b1": fwd_reference,
    "graph28": graph_reference,
    "verify_nograd": verify_reference,
    "verify_all": verify_reference,
}
