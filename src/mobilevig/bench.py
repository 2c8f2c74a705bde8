"""Wall-clock microbenchmarks for the two aggregation mechanisms.

Times only the aggregation step X_j: window minima over the fixed graph's
shifts for the SVGA path, and graph construction + layout changes + gathers
+ max folding for the KNN baseline. The Grapher's projection conv, the same
for both mechanisms, is not timed. The two mechanisms' samples alternate
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

from .knn import knn_aggregate, knn_graph
from .svga import mrconv_aggregate
from .tensor_core import _openblas

MIN_REPS = 30
MIN_WARMUP = 5


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


def aggregation_step(mechanism: str, h: int, w: int, c: int, k: int,
                     batch: int = 1, seed: int = 0) -> Callable[[], np.ndarray]:
    """The operation run_bench times for one mechanism, on its seeded input:
    x is the first draw of a generator keyed by seed."""
    if mechanism not in ("svga", "knn"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    x = np.random.default_rng(seed).standard_normal((batch, c, h, w)).astype(np.float32)
    if mechanism == "svga":
        return lambda: mrconv_aggregate(x, k)
    return lambda: knn_aggregate(x, knn_graph(x, k))


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


def run_bench(h: int, w: int, c: int, svga_k: int = 2, knn_k: int = 9,
              batch: int = 1, reps: int = 100, warmup: int = 10,
              seed: int = 0) -> dict:
    """Times the svga and the knn aggregation, interleaved, and returns
    {"env": environment(), "records": [one dict per mechanism, svga first]}."""
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}, got {reps}")
    if warmup < MIN_WARMUP:
        raise ValueError(f"warmup must be >= {MIN_WARMUP}, got {warmup}")
    ks = {"svga": svga_k, "knn": knn_k}
    steps = [aggregation_step(mech, h, w, c, k, batch, seed) for mech, k in ks.items()]
    records = []
    for (mech, k), times in zip(ks.items(), time_interleaved(steps, reps, warmup)):
        med, p10, p90 = percentiles_ns(times)
        records.append({"mechanism": mech, "h": h, "w": w, "c": c, "k": k,
                        "batch": batch, "reps": reps,
                        "median_ns": med, "p10_ns": p10, "p90_ns": p90})
    return {"env": environment(), "records": records}
