"""Shared test fixtures."""

import subprocess
import sys

import numpy as np
import pytest

from helpers import child_env


@pytest.fixture
def run_with_blas_threads():
    """Run Python source in a new process whose BLAS uses `threads` threads.

    BLAS reads its thread count once, when numpy loads, so a test that needs
    a given count runs its code in a process started with it. Returns the
    process's stdout; a non-zero exit fails the test with its stderr.
    """
    def run(source: str, threads: int) -> str:
        env = child_env(**{var: str(threads) for var in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        proc = subprocess.run([sys.executable, "-c", source], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


@pytest.fixture
def signed_zero_input():
    """Small integers, so that differences tie and cancel exactly, with +0.0
    and -0.0 planted at a third of the positions."""
    def make(shape, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-3, 4, size=shape).astype(dtype)
        flat = x.reshape(-1)
        pos = rng.choice(flat.size, size=max(1, flat.size // 3), replace=False)
        flat[pos] = rng.choice([0.0, -0.0], size=pos.size)
        return x

    return make


@pytest.fixture
def assert_bitwise():
    """Asserts equal dtype, shape, values and zero signs; NaN equals NaN."""
    def check(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    return check
