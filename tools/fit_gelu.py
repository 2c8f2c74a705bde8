"""Fit the float32 GeLU's polynomial and report its error.

    PYTHONPATH=src python3 tools/fit_gelu.py [--degree 5] [--exhaustive]

The float32 kernel in mobilevig.tensor_core computes

    Phi(x) = (1 + tanh(xl * g(t))) / 2,  xl = max(x, -S),  t = min(xl^2, C^2)

with g a polynomial in t on the domain |x| <= C = 4 sqrt 2. Since
tanh(u) = 2 Phi - 1 for u = logit(Phi) / 2, the exact g is logit(Phi(x)) /
(2x), with logit(Phi) = log erfc(-x / sqrt 2) - log erfc(x / sqrt 2) from
math.erfc. A change of g by dg moves the GeLU by about 2 x^2 Phi (1 - Phi)
dg, so this script fits g in float64 as a minimax of the GeLU error by
Lawson's iteratively reweighted least squares: each step solves for g with
the residual weighted by x^2 Phi (1 - Phi), then multiplies the Lawson
weights by the exact GeLU error, and the step whose error is smallest is
kept. It then rounds the coefficients to float32 and picks S: the float32
from which the kernel's own op sequence gives Phi exactly 1 at every s and
exactly 0 at every -s (numpy's float32 tanh is exactly +-1 from 10 on), so
that gelu(x) is x from S up and -0.0 from -S down. Last it measures the
float32 kernel's largest absolute error against a float64 GeLU over the
sweep of tests/test_tensor_core.py (2,000,001 points on [-8, 8] and a few
saturating values), with Phi from math.erfc. It prints the tuple and S to
paste into tensor_core.

--exhaustive then walks all 2^32 float32 bit patterns in fixed blocks
through the kernel with the fitted constants, under np.errstate that raises
on overflow, invalid and divide (underflow of a tiny x's square is allowed,
and so is invalid for NaN inputs, which a signalling NaN raises).
Against the package's float64 GeLU it prints the largest error and its
argument, and it checks that gelu(x) is x bitwise for x >= S (+inf
included), -0.0 for x <= -S (-inf included) and NaN for every NaN payload.
It exits 1 if a check fails or the error exceeds 2e-6. numpy only.
"""

import argparse
import math
import time

import numpy as np

from mobilevig import tensor_core

FIT_END = 4.0 * math.sqrt(2.0)
FIT_POINTS = 6000
LAWSON_STEPS = 300
ERROR_BOUND = 2e-6
WALK_BLOCK = 1 << 20  # bit patterns per block of --exhaustive

_erfc = np.frompyfunc(math.erfc, 1, 1)


def fit(degree: int):
    """g's coefficients, highest degree first, and the float64 maximum of the
    GeLU error over the fit points."""
    k = np.arange(FIT_POINTS)
    x = 0.5 * FIT_END * (1.0 - np.cos(np.pi * (k + 0.5) / FIT_POINTS))
    t = x * x
    z = x / math.sqrt(2.0)
    # 2 Phi and 2 (1 - Phi), each to full relative precision
    upper, lower = (_erfc(v).astype(np.float64) for v in (-z, z))
    g = 0.5 * (np.log(upper) - np.log(lower)) / x
    w = 0.25 * t * upper * lower
    a_mat = w[:, None] * t[:, None] ** np.arange(degree + 1)
    lawson = np.full_like(x, 1.0 / x.size)
    best = (math.inf, None)
    for _ in range(LAWSON_STEPS):
        s = np.sqrt(lawson)
        rows = a_mat * s[:, None]
        scale = np.linalg.norm(rows, axis=0)
        coef = (np.linalg.lstsq(rows / scale, w * g * s, rcond=None)[0] / scale)[::-1]
        fitted = np.polyval(coef, t)
        # x * (Phi - Phi~), with 1 - Phi~ = (1 - tanh(u)) / 2 = 1 / (1 + e^2u)
        err = x * (1.0 / (1.0 + np.exp(2.0 * x * fitted)) - 0.5 * lower)
        worst = float(np.abs(err).max())
        if worst < best[0]:
            best = (worst, coef)
        lawson = lawson * np.abs(err)
        lawson /= lawson.sum()
    return best[1], best[0]


def use(g_coef, sat: float) -> None:
    """Point the float32 kernel at these constants."""
    tensor_core._GELU_G = tuple(tensor_core._const(v) for v in g_coef)
    tensor_core._GELU_SAT = sat
    tensor_core._gelu_bounds.cache_clear()


def pick_saturation(g_coef) -> float:
    """The float32 after the last one in [4, 8) at which the kernel's op
    sequence, with nothing clamped, does not give gelu(s) == s and
    gelu(-s) == -0.0."""
    use(g_coef, math.inf)
    bits = np.arange(*np.array([4.0, 8.0], np.float32).view(np.int32), dtype=np.int32)
    s = bits.view(np.float32)
    ok = (tensor_core.gelu(s) == s) & (tensor_core.gelu(-s) == 0.0)
    last_bad = np.flatnonzero(~ok)
    if not ok[-1] or last_bad.size == 0:
        raise SystemExit("the kernel does not start to saturate inside [4, 8)")
    sat = float(s[last_bad[-1] + 1])
    use(g_coef, sat)
    return sat


def sweep_error() -> tuple[float, float]:
    x = np.concatenate([np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32),
                        np.array([10.0, -10.0, 1e30, -1e30, 0.0], np.float32)])
    x64 = x.astype(np.float64)
    want = 0.5 * x64 * _erfc(-x64 / math.sqrt(2.0)).astype(np.float64)
    err = np.abs(tensor_core.gelu(x).astype(np.float64) - want)
    i = int(np.argmax(err))
    return float(err[i]), float(x[i])


def walk(blocks=range((1 << 32) // WALK_BLOCK)) -> dict:
    """Every float32 bit pattern of the given blocks through the kernel: the
    largest error against the float64 GeLU with its argument, and the count
    of values in each checked class with the count that failed it."""
    s = np.float32(tensor_core._GELU_SAT)
    zero = np.float32(0.0)
    worst, where = 0.0, 0.0
    names = ("x >= S (+inf too) gives x", "x <= -S (-inf too) gives -0.0", "NaN gives NaN")
    counts = {name: [0, 0] for name in names}
    step = np.arange(WALK_BLOCK, dtype=np.uint32)
    for b in blocks:
        x = (step + np.uint32(b * WALK_BLOCK)).view(np.float32)
        nan = np.isnan(x)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = tensor_core.gelu(np.where(nan, zero, x))
        with np.errstate(invalid="ignore"):  # a signalling NaN raises it
            got[nan] = tensor_core.gelu(x[nan])
        high, low = x >= s, x <= -s
        for name, sel, ok in zip(names, (high, low, nan), (
                got[high].view(np.uint32) == x[high].view(np.uint32),
                got[low].view(np.uint32) == np.uint32(0x80000000),
                np.isnan(got[nan]))):
            counts[name][0] += int(np.count_nonzero(sel))
            counts[name][1] += int(np.count_nonzero(~ok))
        finite = np.isfinite(x)
        want = tensor_core.gelu(np.where(finite, x, zero).astype(np.float64))
        err = np.abs(got.astype(np.float64) - want, where=finite, out=np.zeros(x.size))
        i = int(np.argmax(err))  # a NaN error first: it fails the bound
        if np.isnan(err[i]) or err[i] > worst:
            worst, where = float(err[i]), float(x[i])
    return {"worst": worst, "where": where, "counts": counts}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--degree", type=int, default=5, help="degree of g in t")
    ap.add_argument("--exhaustive", action="store_true",
                    help="also check every float32 input (a few minutes)")
    args = ap.parse_args()
    g_coef, fit_err = fit(args.degree)
    g32 = tuple(float(np.float32(v)) for v in g_coef)
    sat = pick_saturation(g32)
    err, where = sweep_error()
    passes = 2 * args.degree + 8
    print(f"g (degree {args.degree}, highest first): {g32!r}")
    print(f"saturation S: {sat!r}")
    print(f"float64 fit, max GeLU error: {fit_err:.3g}")
    print(f"float32 sweep, max GeLU error: {err:.3g} at x = {where:.7g} ({passes} passes per block)")
    if not args.exhaustive:
        return
    start = time.perf_counter()
    report = walk()
    seconds = time.perf_counter() - start
    failed = not report["worst"] <= ERROR_BOUND
    print(f"all 2^32 float32, max GeLU error: {report['worst']:.5g} at x = "
          f"{report['where']:.8g} (bound {ERROR_BOUND:g}, {seconds:.0f} s)")
    for name, (n, bad) in report["counts"].items():
        print(f"{name}: {n - bad} of {n}")
        failed |= bad > 0
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
