"""What the benchmark actually ran on, read back rather than echoed.

The BLAS thread count is asked of each loaded OpenBLAS library through
ctypes (threadpoolctl is not a dependency); the thread variables are read
from the environment the process really has.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

_GET_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _loaded_openblas() -> list[str]:
    paths = []
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path and path not in paths:
                paths.append(path)
    return paths


def blas_in_force() -> list[dict]:
    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        threads = None
        for sym in _GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        out.append({"library": os.path.basename(path), "threads": threads})
    return out


def _cpu_model() -> str | None:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def _git(root: Path, *args: str) -> str | None:
    # the ceiling stops git from reporting an enclosing repository when the
    # benchmark runs from a plain (non-git) checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def environment(root: Path, thread_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_in_force": blas_in_force(),
        "thread_vars": {v: os.environ.get(v) for v in thread_vars},
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }
