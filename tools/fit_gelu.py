"""Fit the float32 GeLU's rational approximation and report its error.

    PYTHONPATH=src python3 tools/fit_gelu.py [--p-degree 6] [--q-degree 3]

The float32 kernel in mobilevig.tensor_core computes

    Phi(x) = 0.5 + xc * P(t) / Q(t),  xc = x clamped to [-C, C],  t = xc^2

with P monic. This script fits P and Q in float64 as a minimax of the GeLU
error x * (Phi(x) - Phi~(x)) on [0, 4 sqrt 2], by Lawson's iteratively
reweighted least squares on the linearised residual f * Q - x * P (each
step divides it by the previous Q). It then rounds the coefficients to
float32 and picks the clamp C: the float32 nearest 4 sqrt 2 at which the
kernel's own op sequence gives Phi exactly 1 at C and exactly 0 at -C, so
that gelu(x) is x above the clamp and -0.0 below its negative. Last it
measures the float32 kernel's largest absolute error against a float64
GeLU over the sweep of tests/test_tensor_core.py (2,000,001 points on
[-8, 8] and a few saturating values). It prints the tuples to paste into
tensor_core. numpy only; float64 erf comes from math.erf.
"""

import argparse
import math

import numpy as np

from mobilevig import tensor_core

FIT_END = 4.0 * math.sqrt(2.0)
FIT_POINTS = 6000
LAWSON_STEPS = 300
CLAMP_SEARCH_ULPS = 4096

_erf = np.frompyfunc(math.erf, 1, 1)


def phi_minus_half(x):
    return 0.5 * _erf(np.asarray(x, np.float64) / math.sqrt(2.0)).astype(np.float64)


def fit(p_degree: int, q_degree: int):
    """(P without its leading 1, Q), highest degree first, and the float64
    maximum of the GeLU error over the fit points."""
    k = np.arange(FIT_POINTS)
    x = 0.5 * FIT_END * (1.0 - np.cos(np.pi * (k + 0.5) / FIT_POINTS))
    t = x * x
    f = phi_minus_half(x)
    # unknowns a_0..a_{dp-1}, b_0..b_dq: x * (t^dp + sum a_i t^i) = f * sum b_j t^j
    a_mat = np.concatenate([-x[:, None] * t[:, None] ** np.arange(p_degree),
                            f[:, None] * t[:, None] ** np.arange(q_degree + 1)], axis=1)
    rhs = x * t ** p_degree
    q_prev = np.ones_like(x)
    lawson = np.full_like(x, 1.0 / x.size)
    best = (math.inf, None)
    for _ in range(LAWSON_STEPS):
        s = x / np.abs(q_prev) * np.sqrt(lawson)
        rows = a_mat * s[:, None]
        scale = np.linalg.norm(rows, axis=0)
        sol = np.linalg.lstsq(rows / scale, rhs * s, rcond=None)[0] / scale
        p_coef = np.r_[1.0, sol[:p_degree][::-1]]
        q_coef = sol[p_degree:][::-1]
        q = np.polyval(q_coef, t)
        err = x * (f - x * np.polyval(p_coef, t) / q)
        worst = float(np.abs(err).max())
        if worst < best[0] and np.all(q > 0):
            best = (worst, (p_coef[1:], q_coef))
        q_prev = q
        lawson = lawson * np.abs(err)
        lawson /= lawson.sum()
    if best[1] is None:
        raise SystemExit(f"no fit of degree ({p_degree}, {q_degree}) keeps Q positive")
    return best[1][0], best[1][1], best[0]


def use(p_coef, q_coef, clamp: float) -> None:
    """Point the float32 kernel at these constants."""
    tensor_core._GELU_P = tuple(tensor_core._const(v) for v in p_coef)
    tensor_core._GELU_Q = tuple(tensor_core._const(v) for v in q_coef)
    tensor_core._GELU_CLAMP = clamp
    tensor_core._gelu_bounds.cache_clear()


def saturates(clamp: np.float32) -> bool:
    x = np.array([clamp, -clamp], np.float32)
    got = tensor_core.gelu(x)
    return got[0] == clamp and got[1] == 0.0


def pick_clamp(p_coef, q_coef) -> float:
    start = int(np.float32(FIT_END).view(np.int32))
    for step in range(CLAMP_SEARCH_ULPS):
        for bits in {start + step, start - step}:
            clamp = np.array(bits, np.int32).view(np.float32)[()]
            use(p_coef, q_coef, float(clamp))
            if saturates(clamp):
                return float(clamp)
    raise SystemExit(f"no float32 within {CLAMP_SEARCH_ULPS} ulps of {FIT_END} saturates")


def sweep_error() -> tuple[float, float]:
    x = np.concatenate([np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32),
                        np.array([10.0, -10.0, 1e30, -1e30, 0.0], np.float32)])
    x64 = x.astype(np.float64)
    want = x64 * (0.5 + phi_minus_half(x64))
    err = np.abs(tensor_core.gelu(x).astype(np.float64) - want)
    i = int(np.argmax(err))
    return float(err[i]), float(x[i])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--p-degree", type=int, default=6, help="degree of P in t (monic)")
    ap.add_argument("--q-degree", type=int, default=3, help="degree of Q in t")
    args = ap.parse_args()
    p_coef, q_coef, fit_err = fit(args.p_degree, args.q_degree)
    p32 = tuple(float(np.float32(v)) for v in p_coef)
    q32 = tuple(float(np.float32(v)) for v in q_coef)
    clamp = pick_clamp(p32, q32)
    err, where = sweep_error()
    passes = 2 * (args.p_degree + args.q_degree) + 6
    print(f"P (monic, degree {args.p_degree}, leading 1 left out): {p32!r}")
    print(f"Q (degree {args.q_degree}): {q32!r}")
    print(f"clamp: {clamp!r}")
    print(f"float64 fit, max GeLU error: {fit_err:.3g}")
    print(f"float32 sweep, max GeLU error: {err:.3g} at x = {where:.7g} ({passes} passes per block)")


if __name__ == "__main__":
    main()
