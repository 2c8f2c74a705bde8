"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobilevig

_SRC = str(Path(mobilevig.__file__).resolve().parents[1])


@pytest.fixture
def run_with_blas_threads():
    """Run Python source in a new process whose BLAS uses `threads` threads.

    BLAS reads its thread count once, when numpy loads, so a test that needs
    a given count runs its code in a process started with it. Returns the
    process's stdout; a non-zero exit fails the test with its stderr.
    """
    def run(source: str, threads: int) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.run([sys.executable, "-c", source], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
