"""Finite-difference validation of a hand-derived backward pass through one
SVGA block (float64 only).

One function, _block_gradients, runs the block forward with plain local
variables and then applies the chain rule in reverse through every op:
circular roll (transposed as the inverse roll), subtraction, the
elementwise max fold (gradient routed to the strictly greater operand; ties
go to the accumulated value, which entered the fold earlier), channel
concat (split), 1x1 convolution, inference batch norm treated as a
per-channel affine map, and the exact GeLU derivative. The reference side
is a central difference of the scalar loss sum(output). With identity
activations the block is built from additions, products and max folds
only, so that loss is evaluated exactly, on dyadic rationals (every float64
is one); the difference quotient then carries no rounding noise, however
small the gradient entry. The operands (x and the five ConvBns) are
converted to exact form once per attempt, and each step converts again
only the operand at the edited array's owner position: x, or the ConvBn
that holds the edited array. A non-finite analytic gradient raises
GradCheckError naming its array; a non-finite block output or difference
quotient gives a NaN error.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .svga import block_convs, fold_shifts, svga_block_forward
from .tensor_core import (BN_EPS, Array, ConvBn, ConvSpec, bn_scale, conv2d, conv_bn, gelu,
                          gelu_grad, roll_2d)


class GradCheckError(RuntimeError):
    pass


# the learned arrays of a ConvBn, in the order gradients are checked
_LEARNED = ("weight", "bias", "gamma", "beta")


def _conv_bn_backward(g: Array, x_in: Array, p: ConvBn) -> tuple[Array, tuple[Array, ...]]:
    """Backward through conv_bn(x_in, p): the gradient of x_in and those of
    p's _LEARNED arrays. The gamma gradient needs the unfolded conv output,
    which conv2d gives again with the forward's bits."""
    pre = conv2d(x_in, p.spec, p.weight, p.bias)
    inv_std = 1.0 / np.sqrt(p.var + BN_EPS)
    g_gamma = np.einsum(
        "nchw,nchw->c", g, (pre - p.mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1))
    g_pre = g * bn_scale(p, np.float64).reshape(1, -1, 1, 1)
    grads = (np.einsum("nohw,nihw->oi", g_pre, x_in)[:, :, None, None],
             g_pre.sum(axis=(0, 2, 3)), g_gamma, g.sum(axis=(0, 2, 3)))
    return np.einsum("nohw,oi->nihw", g_pre, p.weight[:, :, 0, 0]), grads


def _fold(x: Array, k: int) -> tuple[Array, list, float]:
    """X_j = max over fold_shifts of x - roll(x, s), folded from zeros; its
    steps (down, right, candidate, accumulator before it); and the smallest
    |candidate - accumulator| over the steps but (0, 0)."""
    xj = np.zeros_like(x)
    steps, gap = [], math.inf
    for down, right in fold_shifts(x.shape[2], x.shape[3], k):
        cand = x - roll_2d(x, down, right)
        steps.append((down, right, cand, xj))
        if (down, right) != (0, 0):
            gap = min(gap, float(np.min(np.abs(cand - xj))))
        xj = np.maximum(cand, xj)
    return xj, steps, gap


def _fold_backward(g_xj: Array, steps: list) -> Array:
    g_x = np.zeros_like(g_xj)
    g_acc = g_xj
    for down, right, cand, acc_prev in reversed(steps):
        win = cand > acc_prev
        g_cand = np.where(win, g_acc, 0.0)
        g_acc = np.where(win, 0.0, g_acc)
        g_x = g_x + g_cand - roll_2d(g_cand, -down, -right)
    # g_acc now sits on the zero initialization and is discarded
    return g_x


def _block_gradients(x: Array, w: tuple[ConvBn, ...], k: int, identity_act: bool
                     ) -> tuple[Array, Array, list[tuple[Array, ...]], float, float]:
    """The block output z for input x and ConvBns w; the gradients of
    sum(z) with respect to x and, by position in w, each ConvBn's _LEARNED
    arrays; the smallest max-fold tie gap (the (0, 0) steps aside); and the
    smallest |GeLU input| (inf with identity activations)."""
    c = x.shape[1]
    w_in, proj, w_out, w1, w2 = w
    t1 = conv_bn(x, w_in)
    xj, steps, tie_gap = _fold(t1, k)
    cat = np.concatenate([t1, xj], axis=1)
    t3 = conv_bn(cat, proj)
    t4 = t3 if identity_act else gelu(t3)
    y = conv_bn(t4, w_out) + x
    u1 = conv_bn(y, w1)
    u2 = u1 if identity_act else gelu(u1)
    z = conv_bn(u2, w2) + y
    act_abs = math.inf if identity_act else min(float(np.min(np.abs(t3))),
                                                float(np.min(np.abs(u1))))

    g_z = np.ones_like(z)
    g_u2, g_w2 = _conv_bn_backward(g_z, u2, w2)
    g_u1 = g_u2 if identity_act else g_u2 * gelu_grad(u1)
    g_y, g_w1 = _conv_bn_backward(g_u1, y, w1)
    g_y = g_z + g_y
    g_t4, g_out = _conv_bn_backward(g_y, t4, w_out)
    g_t3 = g_t4 if identity_act else g_t4 * gelu_grad(t3)
    g_cat, g_proj = _conv_bn_backward(g_t3, cat, proj)
    g_t1 = g_cat[:, :c] + _fold_backward(g_cat[:, c:], steps)
    g_x, g_in = _conv_bn_backward(g_t1, x, w_in)
    return z, g_y + g_x, [g_in, g_proj, g_out, g_w1, g_w2], tie_gap, act_abs


# A value m / 2**s, m an object array of Python ints. Sums, differences,
# products and max of such values are exact.
_Exact = tuple[Array, int]


def _exact(a: Array) -> _Exact:
    ratios = [v.as_integer_ratio() for v in np.asarray(a, np.float64).ravel().tolist()]
    s = max(d.bit_length() - 1 for _, d in ratios)  # every d is a power of two
    m = np.empty(len(ratios), dtype=object)
    m[:] = [n << (s - d.bit_length() + 1) for n, d in ratios]
    return m.reshape(np.shape(a)), s


def _exact_add(a: _Exact, b: _Exact) -> _Exact:
    s = max(a[1], b[1])
    return a[0] * (1 << (s - a[1])) + b[0] * (1 << (s - b[1])), s


def _exact_operands(p: ConvBn) -> tuple[_Exact, ...]:
    """What _exact_conv_bn reads of p, exact: the weight matrix, then bias,
    -mean, the float64 bn_scale(p) and beta, each shaped (1, c, 1, 1)."""
    def per_channel(v: Array) -> _Exact:
        return _exact(v.reshape(1, -1, 1, 1))

    return (_exact(p.weight[:, :, 0, 0]), per_channel(p.bias), per_channel(-p.mean),
            per_channel(bn_scale(p, np.float64)), per_channel(p.beta))


def _exact_conv_bn(x: _Exact, ops: tuple[_Exact, ...]) -> _Exact:
    # (W x + bias - mean) * scale + beta, from _exact_operands of the ConvBn
    (wm, sw), bias, neg_mean, scale, beta = ops
    n, c, h, w = x[0].shape
    pre = (np.matmul(wm, x[0].reshape(n, c, h * w)).reshape(n, -1, h, w), sw + x[1])
    pre = _exact_add(_exact_add(pre, bias), neg_mean)
    return _exact_add((pre[0] * scale[0], pre[1] + scale[1]), beta)


def _exact_block_sum(ops: list, k: int) -> Fraction:
    """sum(block(x)) with identity activations, without rounding, from
    [_exact(x), _exact_operands(w[0]), ..., _exact_operands(w[4])]."""
    xe, w_in, proj, w_out, w1, w2 = ops
    t1 = _exact_conv_bn(xe, w_in)
    xj = np.zeros_like(t1[0])
    for down, right in fold_shifts(t1[0].shape[2], t1[0].shape[3], k):
        xj = np.maximum(t1[0] - roll_2d(t1[0], down, right), xj)
    t3 = _exact_conv_bn((np.concatenate([t1[0], xj], axis=1), t1[1]), proj)
    y = _exact_add(_exact_conv_bn(t3, w_out), xe)
    z = _exact_add(_exact_conv_bn(_exact_conv_bn(y, w1), w2), y)
    return Fraction(int(z[0].sum()), 1 << z[1])


def random_conv_bn(rng: np.random.Generator, in_c: int, out_c: int, dtype) -> ConvBn:
    """A random 1x1 ConvBn with non-trivial batch norm, drawn from rng."""
    spec = ConvSpec(in_c, out_c, (1, 1))
    return ConvBn(
        spec=spec,
        weight=rng.normal(0.0, 0.4, size=spec.weight_shape()).astype(dtype),
        bias=rng.normal(0.0, 0.1, size=out_c).astype(dtype),
        gamma=rng.uniform(0.7, 1.3, size=out_c).astype(dtype),
        beta=rng.normal(0.0, 0.1, size=out_c).astype(dtype),
        mean=rng.normal(0.0, 0.1, size=out_c).astype(dtype),
        var=rng.uniform(0.5, 1.5, size=out_c).astype(dtype),
    )


def random_block_weights(c: int, rng: np.random.Generator,
                         dtype=np.float64) -> tuple[ConvBn, ...]:
    """Random SVGA block weights (float64 default, as the checker needs): the
    tuple of the block's ConvBns, drawn conv by conv in block_convs order."""
    return tuple(random_conv_bn(rng, spec.in_channels, spec.out_channels, dtype)
                 for _, spec in block_convs(c))


# central-difference step; the near-tie margin that forces a resample; the
# resamples tried before giving up
FD_STEP = 1e-5
TIE_MARGIN = 1e-6
MAX_RESAMPLES = 25


def grad_check_svga(shape: tuple[int, int, int, int] = (1, 4, 4, 4), k: int = 2,
                    seed: int = 0, *, identity_act: bool = False) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks the gradient of sum(block(x)) with respect to x and every conv
    weight, conv bias, and batch-norm affine parameter. Inputs are resampled
    (deterministically) whenever a max fold has a tie within TIE_MARGIN or
    a GeLU pre-activation is within TIE_MARGIN of zero.
    """
    n, c, h, w_ = shape
    if n * c * h * w_ > 4096:
        raise ValueError("gradient check limited to <= 4096 elements")
    for attempt in range(MAX_RESAMPLES):
        rng = np.random.default_rng([seed, attempt])
        weights = random_block_weights(c, rng)
        x = rng.normal(size=shape)
        z, g_x, conv_grads, tie_gap, act_abs = _block_gradients(x, weights, k, identity_act)
        z_finite = bool(np.all(np.isfinite(z)))
        if z_finite and min(tie_gap, act_abs) < TIE_MARGIN:
            continue
        if z_finite and not identity_act:  # bit patterns: zero signs count
            if not np.array_equal(z.view(np.uint64),
                                  svga_block_forward(x, weights, k).view(np.uint64)):
                raise GradCheckError("forward diverged from block forward")
        # (name, owner, array, analytic gradient): x, then each ConvBn's
        # _LEARNED; the owner's position is 0 for x and i + 1 for weights[i]
        checked = [("x", 0, x, g_x)] + [
            (f"conv {i} {f}", i + 1, getattr(p, f), g)
            for i, (p, gs) in enumerate(zip(weights, conv_grads))
            for f, g in zip(_LEARNED, gs)]
        for name, _, _, g in checked:
            if not np.all(np.isfinite(g)):
                raise GradCheckError(f"non-finite gradient for {name}")
        if not z_finite:
            return math.nan  # a non-finite loss has no finite difference

        exact = ([_exact(x)] + [_exact_operands(p) for p in weights]
                 if identity_act else None)

        def loss(j: int) -> Fraction | np.floating:
            # after an edit to an array of owner j, which alone is converted
            # again (a gamma edit changes the batch-norm scale too)
            if exact is None:
                return np.sum(svga_block_forward(x, weights, k))
            ops = exact.copy()
            ops[j] = _exact(x) if j == 0 else _exact_operands(weights[j - 1])
            return _exact_block_sum(ops, k)

        rels = []
        for _, j, arr, analytic in checked:
            for i in range(arr.size):
                orig = arr.flat[i]
                arr.flat[i] = orig + FD_STEP
                lp = loss(j)
                arr.flat[i] = orig - FD_STEP
                lm = loss(j)
                arr.flat[i] = orig
                fd = float((lp - lm) / (2.0 * FD_STEP))
                a = float(analytic.flat[i])
                rels.append(abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        return float(np.max(rels))  # a NaN error stays NaN
    raise GradCheckError(
        f"no input free of near-ties found in {MAX_RESAMPLES} resamples")
