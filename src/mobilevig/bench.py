"""Wall-clock timing of a forward pass, end to end and per layer_plan entry
(profile), and of the aggregation step X_j of both mechanisms: window minima
over the fixed graph's
shifts for the SVGA path, and graph construction + layout changes + gathers
+ max folding for the KNN baseline. The Grapher's projection conv, the same
for both mechanisms, is not timed. All of profile's samples alternate
(time_interleaved, the package's one sample loop).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable

import numpy as np

from .arch import VariantConfig, build_model, forward_entries, layer_shapes, model_forward
from .knn import knn_aggregate, knn_graph
from .svga import mrconv_aggregate
from .tensor_core import _openblas, global_avg_pool, linear

MIN_REPS = 30


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            lines = f.read().splitlines()
    except OSError:  # no /proc on this platform
        return None
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), None)


def _git_commit() -> str | None:
    """HEAD of the checkout this package runs from, or None outside one."""
    here = Path(__file__).resolve().parent
    # the ceiling keeps git from reporting a repository that merely encloses
    # an installed copy (src/mobilevig sits two levels below a checkout root)
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(here.parents[2])}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=here, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """The run's settings as they took effect: the BLAS numpy was built
    against and the thread count each loaded OpenBLAS reports, the thread
    variables set in this process's environment, the CPU model, the numpy
    and Python versions and the git commit."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        # the caller's setting, which the package's own GEMMs override
        "blas_in_force": [{"library": name, "threads": get()} for name, get, _ in _openblas()],
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "cpu_model": _cpu_model(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def aggregation_steps(cfg: VariantConfig, size: int,
                      batch: int = 1) -> dict[tuple[str, int], Callable[[], np.ndarray]]:
    """profile's aggregation steps, keyed (mechanism, k), on one seeded map
    of the SVGA stage's shape: SVGA at cfg.k, and KNN at ViG's k = 9,
    clamped to h*w - 1 on maps of fewer than 10 nodes. A one-node map has
    no neighbour to find, so it gets the SVGA step only."""
    side = size // 32
    x = np.random.default_rng(0).standard_normal(
        (batch, cfg.stage_channels[3], side, side)).astype(np.float32)
    steps = {("svga", cfg.k): lambda: mrconv_aggregate(x, cfg.k)}
    if side * side > 1:
        knn_k = min(9, side * side - 1)  # ViG's k
        steps["knn", knn_k] = lambda: knn_aggregate(x, knn_graph(x, knn_k))
    return steps


def time_once_ns(step: Callable[[], object]) -> int:
    t0 = time.perf_counter_ns()
    step()
    return time.perf_counter_ns() - t0


def percentiles_ns(times) -> tuple[int, int, int]:
    """(median, p10, p90) of the samples, each one of the samples."""
    return tuple(int(np.percentile(times, q, method="nearest")) for q in (50, 10, 90))


def time_interleaved(steps: list[Callable[[], object]], reps: int,
                     warmup: int) -> list[list[int]]:
    """Wall-clock samples of each step, in ns: `warmup` untimed rounds and
    then `reps` timed rounds, the steps taking turns in every round, so
    that a burst of host load slows samples of each step rather than all
    of one."""
    for _ in range(warmup):
        for step in steps:
            step()
    samples = [[] for _ in steps]
    for _ in range(reps):
        for step, times in zip(steps, samples):
            times.append(time_once_ns(step))
    return samples


def _row(times: list[int], macs: int | None = None) -> dict:
    row = dict(zip(("median_ns", "p10_ns", "p90_ns"), percentiles_ns(times)))
    if macs is not None:  # MACs per ns is GMAC/s
        row.update(macs=macs, gmac_per_s=macs / row["median_ns"])
    return row


def profile(cfg: VariantConfig, size: int = 224, batch: int = 1,
            reps: int = MIN_REPS) -> dict:
    """Times cfg's seed-0 model on `batch` images, the first of them the
    input of `forward --seed 0`: model_forward end to end, and one row per
    plan entry, the gap between two of forward_entries' yields (the head's
    holds the pool and the classifier too), taking turns with
    aggregation_steps."""
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}, got {reps}")
    shapes = layer_shapes(cfg, size, size)
    weights = build_model(cfg)
    x = np.random.default_rng([0, 1]).standard_normal((batch, 3, size, size)).astype(np.float32)
    gaps = [[] for _ in shapes]

    def walk():
        stamps = [time.perf_counter_ns()]
        for _, t in forward_entries(x, weights, cfg):
            stamps.append(time.perf_counter_ns())
        linear(global_avg_pool(t), weights.head_weight, weights.head_bias)
        stamps[-1] = time.perf_counter_ns()
        for row, t0, t1 in zip(gaps, stamps, stamps[1:]):
            row.append(t1 - t0)

    aggregations = aggregation_steps(cfg, size, batch)
    steps = [lambda: model_forward(x, weights, cfg), walk, *aggregations.values()]
    end_to_end, _, *aggregation_times = time_interleaved(steps, reps, warmup=5)
    total = _row(end_to_end, sum(macs for _, macs, _ in shapes) * batch)
    # each row's gaps begin with the walk's warm-up rounds
    layers = [{"name": layer.name, "kind": layer.kind, "output": list(hw),
               **_row(row[-reps:], macs * batch)} for (layer, macs, hw), row in zip(shapes, gaps)]
    side = size // 32
    return {
        "variant": cfg.name, "size": size, "batch": batch, "reps": reps,
        "end_to_end": total,
        "rows_over_end_to_end": sum(r["median_ns"] for r in layers) / total["median_ns"],
        "layers": layers,
        "aggregation": [{"mechanism": mech, "k": k, "map": [batch, cfg.stage_channels[3], side, side],
                         **_row(times)} for (mech, k), times in zip(aggregations, aggregation_times)],
        "env": environment(),
    }
