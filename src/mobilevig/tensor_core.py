"""Dense NCHW tensor kernels: roll, convolution, inference batch norm, GeLU,
pooling, concatenation and elementwise arithmetic.

All kernels are pure functions of numpy arrays. The main path is float32;
float64 inputs are supported (needed by the gradient checker). Every kernel
computes each output element with an operation sequence that does not depend
on the element's position or on how many other elements are in the call:
elementwise ops are exactly rounded per element, and a dense convolution is
one GEMM per fixed-width chunk of output pixels of one image, the last chunk
zero-padded to the full width, so every BLAS call of a layer has the same
shape whatever the image size or batch. The full chunks of all images go to
BLAS in one batched matmul and the padded last chunks in one more. As a
consequence results are bitwise reproducible and invariant under pixel
permutation or batch repacking, which the graph-equivalence and equivariance
checks in this package rely on. The chunked GEMM's invariance is a property
of the BLAS build (each output column is reduced in the same order wherever
it sits in a chunk), not a guarantee of the BLAS interface; the tests check
it bitwise.

A depthwise convolution copies the input, a block of channels at a time,
into a zero-bordered buffer, each channel's map flat with kw - 1 zeros of
slack after it. At stride 1 every tap is then one contiguous run of
oh * wp elements of that buffer (wp the padded width): the accumulation
works on "wide rows" whose last kw - 1 columns are garbage that no output
reads, and ufunc loops run over a whole map rather than one output row.
Larger strides take strided views of the same buffer. A block holds about
_DW_BLOCK scratch elements, so the tap products stay in L2; each element
sees acc = tap * w, then acc = acc + tap * w per tap in row-major order,
then + bias, whatever block it falls in. The kernel runs with numpy's ufunc
buffer set to _DW_BUFSIZE elements, restored on exit: with the default
buffer numpy copies each tap's per-channel weight broadcast through it
whenever a map is shorter than the buffer.

Float32 GeLU is x * Phi(x) with Phi a clamped rational function,
Phi(x) = 0.5 + xc * P(xc^2) / Q(xc^2), P monic of degree 6 and Q of degree
3, evaluated in 24 in-place ufunc passes per block. The clamp is a float32
near 4 sqrt 2 at which Phi comes out exactly 0 and 1, so gelu(x) = x above
it and -0.0 below its negative.

`conv_bn` folds inference batch norm into the conv weights and bias on every
call, so a conv and its batch norm cost one pass over the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import erf

Array = np.ndarray

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# output pixels per GEMM call of a dense conv; fixed, never derived from the
# pixel count, so that a pixel's result does not depend on the image size
_CHUNK = 64

# depthwise conv: scratch elements per channel block, sized so that a block's
# tap products stay in L2; fixed, and no element's op sequence depends on it
_DW_BLOCK = 65536

# depthwise conv: numpy's ufunc buffer size, in elements, while the kernel
# runs. A tap times its per-channel weight is a broadcast over rows of
# oh * wp elements, and numpy copies rows shorter than its buffer (8192 by
# default) through the buffer, which about halved the speed of 28x28 maps;
# one size for all maps, the best of a sweep at 14x14, 28x28 and 56x56.
# Results do not depend on it
_DW_BUFSIZE = 512


def _f32(v: float) -> Array:
    # a read-only 0-d float32 array: as a ufunc operand it has less per-call
    # overhead than a numpy scalar, which small GeLU calls notice
    a = np.array(v, dtype=np.float32)
    a.flags.writeable = False
    return a


# float32 GeLU: elements per block; the clamp, a float32 at which the op
# sequence of _gelu_float32 gives Phi exactly 0 and 1; and the rational
# Phi(x) = 0.5 + x * P(x^2) / Q(x^2) on the clamped range, coefficients
# highest degree first, P monic with its leading 1 left out. Fitted as a
# float64 minimax of the GeLU error by tools/fit_gelu.py.
_GELU_BLOCK = 65536
_GELU_CLAMP = 5.656853675842285
_GELU_P = tuple(_f32(v) for v in (
    -149.2367706298828, 8461.76171875, 96771.03125, 45655096.0,
    276220768.0, 5041446912.0))
_GELU_Q = tuple(_f32(v) for v in (
    12356146.0, 264278624.0, 2799209472.0, 12636824576.0))
_HALF_F32 = _f32(0.5)


@cache
def _gelu_bounds() -> tuple[Array, Array]:
    # the clamp as two read-only block-sized arrays, made on first use: with
    # an array operand np.maximum and np.minimum run about twice as fast as
    # with a 0-d one
    bounds = tuple(np.full(_GELU_BLOCK, v, dtype=np.float32)
                   for v in (-_GELU_CLAMP, _GELU_CLAMP))
    for b in bounds:
        b.flags.writeable = False
    return bounds


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class ConvSpec:
    """Static configuration of a 2-D convolution (cross-correlation)."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        kh, kw = self.kernel
        _require(self.in_channels >= 1 and self.out_channels >= 1,
                 "channel counts must be >= 1")
        _require(kh >= 1 and kw >= 1, "kernel dims must be >= 1")
        _require(self.stride >= 1, "stride must be >= 1")
        _require(self.padding >= 0, "padding must be >= 0")
        _require(self.groups >= 1, "groups must be >= 1")
        _require(self.in_channels % self.groups == 0,
                 f"in_channels {self.in_channels} not divisible by groups {self.groups}")
        _require(self.out_channels % self.groups == 0,
                 f"out_channels {self.out_channels} not divisible by groups {self.groups}")

    def weight_shape(self) -> tuple[int, int, int, int]:
        kh, kw = self.kernel
        return (self.out_channels, self.in_channels // self.groups, kh, kw)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        oh = (h + 2 * self.padding - kh) // self.stride + 1
        ow = (w + 2 * self.padding - kw) // self.stride + 1
        _require(oh >= 1 and ow >= 1,
                 f"kernel {self.kernel} does not fit {h}x{w} input with padding {self.padding}")
        return oh, ow


def _check_nchw(x: Array, name: str = "x") -> None:
    _require(x.ndim == 4, f"{name} must be 4-D (n, c, h, w), got {x.ndim}-D")
    _require(all(d >= 1 for d in x.shape), f"{name} has a zero-sized dimension")


def roll_2d(x: Array, down: int, right: int) -> Array:
    """Circular shift: out[n,c,i,j] = x[n,c,(i-down) mod h, (j-right) mod w]."""
    _check_nchw(x)
    return np.roll(x, (down, right), axis=(2, 3))


def _gemm_chunked(wmat: Array, cols: Array, out: Array) -> None:
    # out(n, oc, P) = wmat(oc, K) @ cols(n, K, P) as one GEMM per _CHUNK
    # columns of one image: the full chunks of all images in one batched
    # matmul over strided views, with batch axes (image, chunk), and the last
    # partial chunk of every image zero-padded to the full width in one more
    n, k, p = cols.shape
    oc = wmat.shape[0]
    if oc == 1:
        # elementwise, in the same order for every pixel
        acc = cols[:, 0] * wmat[0, 0]
        for i in range(1, k):
            acc = acc + cols[:, i] * wmat[0, i]
        out[:, 0] = acc
        return
    full = p - p % _CHUNK
    if full:
        np.matmul(wmat, cols[:, :, :full].reshape(n, k, -1, _CHUNK).transpose(0, 2, 1, 3),
                  out=out[:, :, :full].reshape(n, oc, -1, _CHUNK).transpose(0, 2, 1, 3))
    if full < p:
        pad = np.zeros((n, k, _CHUNK), dtype=cols.dtype)
        pad[:, :, :p - full] = cols[:, :, full:]
        out[:, :, full:] = (wmat @ pad)[:, :, :p - full]


def _conv_dense(xp: Array, weight: Array, bias: Array, stride: int,
                oh: int, ow: int) -> Array:
    n, c = xp.shape[:2]
    oc, _, kh, kw = weight.shape
    p = oh * ow
    wmat = weight.reshape(oc, -1)  # reduction axis: channel-major, then kernel row-major
    out = np.empty((n, oc, oh, ow), dtype=xp.dtype)
    # a 1x1 stride-1 conv reads the input as is; others its im2col unfold
    if kh == kw == stride == 1:
        cols = xp.reshape(n, c, p)
    else:
        cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
        for ky in range(kh):
            for kx in range(kw):
                cols[:, :, ky, kx] = xp[:, :, ky:ky + (oh - 1) * stride + 1:stride,
                                        kx:kx + (ow - 1) * stride + 1:stride]
        cols = cols.reshape(n, -1, p)
    _gemm_chunked(wmat, cols, out.reshape(n, oc, p))
    out += bias.reshape(1, oc, 1, 1)
    return out


def _pad_hw(x: Array, p: int) -> Array:
    # x zero-padded by p on both sides of its two spatial axes; np.pad's
    # result, bit for bit, without its fixed cost per call
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p:p + h, p:p + w] = x
    return out


def _conv_depthwise(x: Array, weight: Array, bias: Array, stride: int,
                    padding: int, oh: int, ow: int) -> Array:
    n, c, h, w = x.shape
    _, _, kh, kw = weight.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    # each channel's zero-bordered map, flat, plus kw - 1 zeros of slack: at
    # stride 1 tap (ky, kx) is the contiguous run of oh * wp elements from
    # ky * wp + kx, a "wide row" map whose last kw - 1 columns are garbage
    # and never read; at larger strides a tap is a strided view of the map
    span = hp * wp + kw - 1
    wide = wp if stride == 1 else ow
    # channels per block: the block's scratch holds about _DW_BLOCK elements
    cb = min(c, max(1, _DW_BLOCK // (oh * wide)))
    buf = np.zeros((cb, span), dtype=x.dtype)
    maps = buf[:, :hp * wp].reshape(cb, hp, wp)
    acc = np.empty((cb, oh, wide), dtype=x.dtype)
    term = np.empty_like(acc)
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    saved = np.setbufsize(_DW_BUFSIZE)
    try:
        for i in range(n):
            for c0 in range(0, c, cb):
                m = min(cb, c - c0)
                maps[:m, padding:padding + h, padding:padding + w] = x[i, c0:c0 + m]
                a, t = acc[:m], term[:m]
                # the op sequence per element is acc = tap * w, then
                # acc = acc + tap * w per tap in row-major order, then + bias
                for ky in range(kh):
                    for kx in range(kw):
                        if stride == 1:
                            start = ky * wp + kx
                            tap = buf[:m, start:start + oh * wp].reshape(m, oh, wp)
                        else:
                            tap = maps[:m, ky:ky + (oh - 1) * stride + 1:stride,
                                       kx:kx + (ow - 1) * stride + 1:stride]
                        wk = weight[c0:c0 + m, 0, ky, kx, None, None]
                        if ky == kx == 0:
                            np.multiply(tap, wk, out=a)
                        else:
                            np.multiply(tap, wk, out=t)
                            a += t
                np.add(a[:, :, :ow], bias[c0:c0 + m, None, None],
                       out=out[i, c0:c0 + m])
    finally:
        np.setbufsize(saved)
    return out


def conv2d(x: Array, spec: ConvSpec, weight: Array, bias: Array) -> Array:
    """Dense (groups=1) or depthwise 2-D cross-correlation with zero padding."""
    _check_nchw(x)
    _require(x.shape[1] == spec.in_channels,
             f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    weight = np.asarray(weight, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    _require(weight.shape == spec.weight_shape(),
             f"weight shape {weight.shape} != expected {spec.weight_shape()}")
    _require(bias.shape == (spec.out_channels,),
             f"bias shape {bias.shape} != ({spec.out_channels},)")
    oh, ow = spec.out_size(x.shape[2], x.shape[3])

    if spec.groups == spec.in_channels == spec.out_channels:
        return _conv_depthwise(x, weight, bias, spec.stride, spec.padding, oh, ow)
    _require(spec.groups == 1,
             f"only dense (groups=1) and depthwise convs are supported, got groups="
             f"{spec.groups} for {spec.in_channels} -> {spec.out_channels} channels")
    p = spec.padding
    xp = _pad_hw(x, p) if p else x
    return _conv_dense(xp, weight, bias, spec.stride, oh, ow)


def _check_bn(c: int, gamma: Array, beta: Array, mean: Array, var: Array) -> None:
    for name, v in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        _require(np.shape(v) == (c,), f"{name} must have shape ({c},)")
    _require(bool(np.all(np.asarray(var) >= 0)), "var must be non-negative")


def batchnorm_infer(x: Array, gamma: Array, beta: Array, mean: Array,
                    var: Array, eps: float = 1e-5) -> Array:
    """Inference batch norm: gamma * (x - mean) / sqrt(var + eps) + beta."""
    _check_nchw(x)
    c = x.shape[1]
    _check_bn(c, gamma, beta, mean, var)
    scale = (gamma / np.sqrt(var + eps)).astype(x.dtype)
    shift = np.asarray(beta, dtype=x.dtype)
    center = np.asarray(mean, dtype=x.dtype)
    out = x - center.reshape(1, c, 1, 1)
    out *= scale.reshape(1, c, 1, 1)
    out += shift.reshape(1, c, 1, 1)
    return out


def _gelu_float32(x: Array) -> Array:
    # x * Phi(x), with Phi(x) = 0.5 + xc * P(t) / Q(t), xc = x clamped to
    # [-_GELU_CLAMP, _GELU_CLAMP] and t = xc^2, in 24 ufunc passes per block.
    # x is clamped from below first and that value is the final factor: it
    # equals x except below the clamp, where Phi is exactly 0 and the product
    # is -0.0 either way, -inf included. The kernel runs over fixed-size
    # blocks through three scratch buffers and the output, with in-place
    # ufuncs; each element sees the same exactly rounded float32 op sequence
    # whatever its position or the array size, so results are repacking
    # invariant.
    flat = x.reshape(-1)
    out = np.empty(x.shape, dtype=np.float32)
    out_flat = out.reshape(-1)
    lo, hi = _gelu_bounds()
    n = min(flat.size, _GELU_BLOCK)
    xc_buf = np.empty(n, dtype=np.float32)
    t_buf = np.empty(n, dtype=np.float32)
    p_buf = np.empty(n, dtype=np.float32)
    for start in range(0, flat.size, _GELU_BLOCK):
        xb = flat[start:start + _GELU_BLOCK]
        m = xb.size
        xl = out_flat[start:start + m]
        xc, t, p = xc_buf[:m], t_buf[:m], p_buf[:m]
        np.maximum(xb, lo[:m], out=xl)
        np.minimum(xl, hi[:m], out=xc)
        np.multiply(xc, xc, out=t)
        np.add(t, _GELU_P[0], out=p)  # Horner in t; P is monic
        for a in _GELU_P[1:]:
            p *= t
            p += a
        p *= xc
        q = xc  # xc is no longer needed; its buffer takes the denominator
        np.multiply(t, _GELU_Q[0], out=q)
        q += _GELU_Q[1]
        for b in _GELU_Q[2:]:
            q *= t
            q += b
        p /= q
        p += _HALF_F32
        xl *= p
    return out


def gelu(x: Array) -> Array:
    """GeLU, x * Phi(x), with Phi the standard normal CDF (erf form).

    float32: Phi from a clamped rational approximation (absolute GeLU error
    at most 2e-6 against float64), exactly 0 and 1 beyond the clamp, so
    gelu(x) is x there and -0.0 below -clamp; other dtypes: exact erf. In
    every dtype gelu(+inf) = +inf, gelu(-inf) = -0.0 and gelu(nan) = nan,
    with no floating-point warning.
    """
    if getattr(x, "dtype", None) == np.float32:
        return _gelu_float32(np.asarray(x))
    phi = erf(x * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    # a finite stand-in for -inf, where Phi is exactly 0: the product is then
    # -0.0, where -inf * 0 would be nan with an invalid-value warning
    out = np.maximum(x, np.finfo(phi.dtype).min)
    out *= phi
    return out


def gelu_grad(x: Array) -> Array:
    """Derivative of exact GeLU: Phi(x) + x * phi(x). It is 0 at -inf and 1
    at +inf, with no floating-point warning; nan stays nan."""
    # phi(40) underflows to 0 even in float64, so x * phi is the same ±0 with
    # x clamped there, and x * x cannot overflow nor inf * 0 give nan
    xc = np.clip(x, -40.0, 40.0)
    phi = np.exp(-0.5 * xc * xc) * _INV_SQRT2PI
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + xc * phi


def concat_channels(a: Array, b: Array) -> Array:
    _check_nchw(a, "a")
    _check_nchw(b, "b")
    _require(a.shape[0] == b.shape[0] and a.shape[2:] == b.shape[2:],
             f"batch/spatial mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def _check_same_shape(a: Array, b: Array) -> None:
    _require(a.shape == b.shape, f"shape mismatch: {a.shape} vs {b.shape}")


def elem_add(a: Array, b: Array) -> Array:
    _check_same_shape(a, b)
    return a + b


def elem_sub(a: Array, b: Array) -> Array:
    _check_same_shape(a, b)
    return a - b


def elem_max(a: Array, b: Array) -> Array:
    _check_same_shape(a, b)
    return np.maximum(a, b)


def global_avg_pool(x: Array) -> Array:
    """Mean over all spatial positions, (n, c, h, w) -> (n, c)."""
    _check_nchw(x)
    return np.mean(x, axis=(2, 3))


def linear(x: Array, weight: Array, bias: Array) -> Array:
    """Affine map per batch row: (n, f) @ weight(out, f)^T + bias."""
    _require(x.ndim == 2, f"x must be 2-D, got {x.ndim}-D")
    weight = np.asarray(weight, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    _require(weight.ndim == 2 and weight.shape[1] == x.shape[1],
             f"weight shape {weight.shape} incompatible with input {x.shape}")
    _require(bias.shape == (weight.shape[0],),
             f"bias shape {bias.shape} != ({weight.shape[0]},)")
    # one matvec per batch row, same rationale as the conv kernel
    return np.matmul(weight, x[:, :, None])[:, :, 0] + bias


@dataclass
class ConvBn:
    """A convolution followed by inference batch norm, as one parameter bundle."""

    spec: ConvSpec
    weight: Array
    bias: Array
    gamma: Array
    beta: Array
    mean: Array
    var: Array
    eps: float = 1e-5


def conv_bn(x: Array, p: ConvBn) -> Array:
    """conv2d then batchnorm_infer, with the batch norm folded into the conv.

    The folded weight is weight * scale and the folded bias is
    (bias - mean) * scale + beta, with scale = gamma / sqrt(var + eps), all
    computed in x's dtype on every call: the result tracks any in-place
    change to p's arrays. It equals the unfolded pair up to rounding.
    """
    c = p.spec.out_channels
    _require(np.shape(p.weight) == p.spec.weight_shape() and np.shape(p.bias) == (c,),
             f"weight/bias shapes {np.shape(p.weight)}, {np.shape(p.bias)} do not "
             f"match {p.spec.weight_shape()}, ({c},)")
    _check_bn(c, p.gamma, p.beta, p.mean, p.var)
    dt = x.dtype
    scale = np.asarray(p.gamma, dt) / np.sqrt(np.asarray(p.var, dt) + p.eps)
    weight = np.asarray(p.weight, dt) * scale.reshape(-1, 1, 1, 1)
    bias = (np.asarray(p.bias, dt) - np.asarray(p.mean, dt)) * scale + np.asarray(p.beta, dt)
    return conv2d(x, p.spec, weight, bias)


def identity_conv_bn(spec: ConvSpec, weight: Array, bias: Array | None = None,
                     dtype=np.float32) -> ConvBn:
    """ConvBn whose batch norm is the identity (eps folded to zero)."""
    c = spec.out_channels
    one = np.ones(c, dtype=dtype)
    zero = np.zeros(c, dtype=dtype)
    if bias is None:
        bias = np.zeros(c, dtype=dtype)
    return ConvBn(spec, np.asarray(weight, dtype=dtype), np.asarray(bias, dtype=dtype),
                  gamma=one, beta=zero, mean=zero, var=one, eps=0.0)
