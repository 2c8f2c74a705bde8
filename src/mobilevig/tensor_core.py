"""Dense NCHW tensor kernels: roll, convolution, inference batch norm, GeLU,
pooling, concatenation and elementwise arithmetic.

Without `out=` (below), every kernel is a pure function of numpy arrays
that writes none of its arguments. The main path is float32;
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

A depthwise convolution (stride 1 only) copies the input, a block of
channels at a time, into a zero-bordered buffer, each channel's map flat
with kw - 1 zeros of slack after it. Every tap is then one contiguous run
of oh * wp elements of that buffer (wp the padded width): the accumulation
works on "wide rows" whose last kw - 1 columns are garbage that no output
reads, and ufunc loops run over a whole map rather than one output row.
A block holds about _DW_BLOCK scratch elements, so the tap products stay
in L2; each element sees acc = tap * w, then acc = acc + tap * w per tap
in row-major order, then + bias, whatever block it falls in. The kernel
runs with numpy's ufunc buffer set to _DW_BUFSIZE elements, restored on
exit: with the default buffer numpy copies each tap's per-channel weight
broadcast through it whenever a map is shorter than the buffer.

Float32 GeLU is x * Phi(x) with Phi(x) = (1 + tanh(x * g(x^2))) / 2, the
tanh form of Hendrycks & Gimpel (arXiv:1606.08415) with a fitted degree-5
polynomial g in place of their fixed cubic, evaluated in 18 in-place ufunc
passes per block. g's argument is clamped to its domain, x^2 <= 32 (|x| <=
4 sqrt 2), and x from below to -S, with S the float32 from which tanh's
argument reaches 10, where numpy's float32 tanh is exactly +-1: so gelu(x)
= x from S up and -0.0 from -S down. Other dtypes take Phi(x) = 0.5 * (1 +
erf(x / sqrt 2)) in float64, with erf from W. J. Cody's rational Chebyshev
approximations (Math. Comp. 23, 1969) in numpy: at most 6 ulp from
math.erf over the tested points, odd bit for bit, and run over fixed-size
blocks like the float32 kernel, each element's op sequence chosen by its
own value. The package needs numpy only.

`conv_bn` folds inference batch norm into the conv weights and bias on every
call, so a conv and its batch norm cost one pass over the output. It scales
by `bn_scale` (the gradient checker's scale too), whose eps is always
`BN_EPS`: a ConvBn carries none, and an MVIG file stores none.

Three kernels take an explicit `out=`, by keyword: `gelu(x, out=x)`,
`elem_add(a, b, out=a)` and `conv_bn(x, p, out=x)` (`conv2d` likewise) for
a stride-1 depthwise conv. The result is written into `out` with the bits
of the pure call. `out` must be a writeable C-contiguous array of the
result's shape and dtype, and either one of the inputs itself or sharing
no memory with them; anything else raises ValueError. GeLU and the add
are elementwise: each block of the output is computed from the same
block of the input alone. The depthwise conv copies each channel block of
an image into its zero-bordered scratch before it writes that block's
output, and the blocks are disjoint in channels, so its output may
overwrite its input too. A dense conv may not: every output channel reads
every input channel, so any `out` raises. The model's block forwards use
these forms on their own temporaries only, which nothing reads again;
callers that keep their inputs (the gradient checker, the tests) call the
pure forms.

Every BLAS call of the package (the dense conv's GEMMs, `linear` and
`knn.knn_graph`'s Gram product) goes through `_matmul`, which sets each
OpenBLAS mapped into the process to one thread for the call and puts
back each library's count when it returns. A threaded OpenBLAS may split
a long reduction differently, so without the pin a forward's bits would
depend on the caller's thread count; with it they are the one-thread bits
everywhere, and a caller at several threads loses them for these calls.
The libraries are found once, through /proc/self/maps (a deleted file
through /proc/self/map_files) and ctypes. Limits:
where numpy's BLAS is not OpenBLAS, or there is no /proc, nothing is
pinned; and the pin is process-global while a GEMM runs, so concurrent
calls from several Python threads are not supported (one call's restore
can unpin another's GEMM).

An input check formats its error message only when it fails: each check is
`if not <cond>: raise ValueError(f"...")` at its site, never a helper that
takes the message as an argument. Two reasons: a message formatted on every
call is paid for by every call that passes (about a quarter of a 1x16x2x2
`conv_bn` call, and the verify suites make thousands of such calls); and
formatting some values (a dtype) allocates a number of bytes that varies
from process to process, which the traced per-entry peaks that `profile`
reports, and a test pins to the byte, would show.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

Array = np.ndarray

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_INV_SQRTPI = 0.5641895835477563
BN_EPS = 1e-5  # every ConvBn's batch-norm epsilon (conv_bn, the gradient checker)

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


def _const(v: float, dtype: type = np.float32) -> Array:
    # a read-only 0-d array: as a ufunc operand it has less per-call
    # overhead than a Python or numpy scalar, which small GeLU calls notice
    a = np.array(v, dtype=dtype)
    a.flags.writeable = False
    return a


# float32 GeLU: elements per block; the end of g's domain in x^2, (4 sqrt 2)^2;
# the saturation point S, the smallest float32 at which the op sequence of
# _gelu_float32 gives Phi exactly 1 at S and exactly 0 at -S; and g, highest
# degree first. Fitted as a float64 minimax of the GeLU error by
# tools/fit_gelu.py, which also picks S.
_GELU_BLOCK = 65536
_GELU_T_MAX = 32.0
_GELU_SAT = 7.1081953048706055
_GELU_G = tuple(_const(v) for v in (
    -5.5106070817600994e-08, 2.7573930765356636e-06, -4.688671469921246e-05,
    -5.928908649366349e-05, 0.036367740482091904, 0.7978717684745789))
_ONE_F32 = _const(1.0)
_HALF_F32 = _const(0.5)


@cache
def _gelu_bounds() -> tuple[Array, Array]:
    # -S and the domain end as two read-only block-sized arrays, made on
    # first use: with an array operand np.maximum and np.minimum run about
    # twice as fast as with a 0-d one
    bounds = tuple(np.full(_GELU_BLOCK, v, dtype=np.float32)
                   for v in (-_GELU_SAT, _GELU_T_MAX))
    for b in bounds:
        b.flags.writeable = False
    return bounds


def _ratio(num: tuple, den: tuple) -> tuple:
    # R = num / den, coefficients highest degree first as 0-d arrays; den is
    # monic, its leading 1 left out
    return tuple(tuple(_const(v, np.float64) for v in c) for c in (num, den))


# float64 erf: W. J. Cody's rational Chebyshev approximations (Math. Comp.
# 23, 1969, as in his CALERF). erf(x) = x * R1(x^2) for |x| <= 0.46875;
# above, erf(x) = sign(x) * (1 - erfc(|x|)), with erfc(y) = exp(-y^2) * R2(y)
# up to 4 and exp(-y^2) * (1/sqrt(pi) - R3(1/y^2) / y^2) / y beyond. exp(-y^2)
# is split as exp(-s^2) * exp(-(y - s) * (y + s)), s = y truncated to
# sixteenths, so that the rounding of y^2 does not reach the exponent. |x| is
# clamped to 6 first, where erf is 1 in float64, so no x * x overflows.
# Elements per block, the range edges and the clamp, then R1, R2 and R3.
_ERF_BLOCK = 65536
_ERF_NEAR, _ERF_FAR, _ERF_CLAMP = 0.46875, 4.0, 6.0
_ERF_R1 = _ratio(
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03))
_ERF_R2 = _ratio(
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03))
_ERF_R3 = _ratio(
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3))


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
        if not (self.in_channels >= 1 and self.out_channels >= 1):
            raise ValueError("channel counts must be >= 1")
        if not (kh >= 1 and kw >= 1):
            raise ValueError("kernel dims must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if self.in_channels % self.groups != 0:
            raise ValueError(f"in_channels {self.in_channels} not divisible by groups "
                             f"{self.groups}")
        if self.out_channels % self.groups != 0:
            raise ValueError(f"out_channels {self.out_channels} not divisible by groups "
                             f"{self.groups}")

    def weight_shape(self) -> tuple[int, int, int, int]:
        kh, kw = self.kernel
        return (self.out_channels, self.in_channels // self.groups, kh, kw)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        oh = (h + 2 * self.padding - kh) // self.stride + 1
        ow = (w + 2 * self.padding - kw) // self.stride + 1
        if not (oh >= 1 and ow >= 1):
            raise ValueError(f"kernel {self.kernel} does not fit {h}x{w} input with padding "
                             f"{self.padding}")
        return oh, ow


def _check_out(out: Array, shape: tuple[int, ...], dtype, *inputs: Array) -> None:
    # out of an in-place form (see the module docstring). Partial overlap is
    # refused because a blocked kernel would write an output block before
    # it reads a later input block that the output block covers
    if not isinstance(out, np.ndarray):
        raise ValueError(f"out must be a numpy array, got {type(out).__name__}")
    if out.shape != shape:
        raise ValueError(f"out shape {out.shape} != result shape {shape}")
    if out.dtype != dtype:
        raise ValueError(f"out dtype {out.dtype} != result dtype {np.dtype(dtype)}")
    if not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be C-contiguous and writeable")
    if not all(out is a or not np.may_share_memory(out, a) for a in inputs):
        raise ValueError("out must be an input itself or share no memory with the inputs")


def _check_nchw(x: Array, name: str = "x") -> None:
    if x.ndim != 4:
        raise ValueError(f"{name} must be 4-D (n, c, h, w), got {x.ndim}-D")
    if not all(d >= 1 for d in x.shape):
        raise ValueError(f"{name} has a zero-sized dimension")


def roll_2d(x: Array, down: int, right: int) -> Array:
    """Circular shift: out[n,c,i,j] = x[n,c,(i-down) mod h, (j-right) mod w]."""
    _check_nchw(x)
    return np.roll(x, (down, right), axis=(2, 3))


# the (prefix, suffix) of each OpenBLAS build's thread-count functions,
# <prefix>_get_num_threads<suffix> and <prefix>_set_num_threads<suffix>:
# plain, 64-bit int, and the scipy_openblas builds of both, which numpy's
# own wheels ship
_OPENBLAS_NAMES = tuple((p, s) for p in ("openblas", "scipy_openblas") for s in ("", "64_"))


@cache
def _openblas() -> tuple[tuple[str, object, object], ...]:
    """(file name, thread-count getter, setter) of each OpenBLAS mapped into
    this process, looked up once; empty without /proc."""
    try:
        with open("/proc/self/maps") as f:
            maps = f.read().splitlines()
    except OSError:
        return ()
    # file name -> path to open. The pathname is everything after the fifth
    # field: it may hold spaces. A file deleted since it was mapped reads
    # "<path> (deleted)", and is opened through its mapping's map_files
    # entry, which gives back the library already loaded
    paths = {}
    for line in maps:
        if "openblas" in line.lower() and ".so" in line:
            span, *_, path = line.split(maxsplit=5)
            name = path.removesuffix(" (deleted)")
            if name != path:  # map_files names drop the maps file's zero padding
                start, end = (int(a, 16) for a in span.split("-"))
                path = f"/proc/self/map_files/{start:x}-{end:x}"
            paths.setdefault(name, path)
    found = []
    for name, path in paths.items():
        lib = ctypes.CDLL(path)
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((os.path.basename(name), get, put))
                break
    return tuple(found)


def _matmul(a: Array, b: Array, out: Array | None = None) -> Array:
    """np.matmul with every OpenBLAS at one thread, each library's thread
    count restored afterwards: the same bits whatever the caller's count."""
    restore = []
    for _, get, put in _openblas():
        threads = get()
        if threads != 1:
            put(1)
            restore.append((put, threads))
    try:
        return np.matmul(a, b, out=out)
    finally:
        for put, threads in restore:
            put(threads)


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
        _matmul(wmat, cols[:, :, :full].reshape(n, k, -1, _CHUNK).transpose(0, 2, 1, 3),
                out=out[:, :, :full].reshape(n, oc, -1, _CHUNK).transpose(0, 2, 1, 3))
    if full < p:
        pad = np.zeros((n, k, _CHUNK), dtype=cols.dtype)
        pad[:, :, :p - full] = cols[:, :, full:]
        out[:, :, full:] = _matmul(wmat, pad)[:, :, :p - full]


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


def _conv_depthwise(x: Array, weight: Array, bias: Array, padding: int,
                    oh: int, ow: int, out: Array | None = None) -> Array:
    n, c, h, w = x.shape
    _, _, kh, kw = weight.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    # each channel's zero-bordered map, flat, plus kw - 1 zeros of slack: tap
    # (ky, kx) is the contiguous run of oh * wp elements from ky * wp + kx, a
    # "wide row" map whose last kw - 1 columns are garbage and never read
    span = hp * wp + kw - 1
    # channels per block: the block's scratch holds about _DW_BLOCK elements
    cb = min(c, max(1, _DW_BLOCK // (oh * wp)))
    buf = np.zeros((cb, span), dtype=x.dtype)
    maps = buf[:, :hp * wp].reshape(cb, hp, wp)
    acc = np.empty((cb, oh, wp), dtype=x.dtype)
    term = np.empty_like(acc)
    if out is None:
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
    saved = np.setbufsize(_DW_BUFSIZE)
    try:
        for i in range(n):
            for c0 in range(0, c, cb):
                m = min(cb, c - c0)
                # the block's input is copied before its output is written,
                # so out may be x itself
                maps[:m, padding:padding + h, padding:padding + w] = x[i, c0:c0 + m]
                a, t = acc[:m], term[:m]
                # the op sequence per element is acc = tap * w, then
                # acc = acc + tap * w per tap in row-major order, then + bias
                for ky in range(kh):
                    for kx in range(kw):
                        start = ky * wp + kx
                        tap = buf[:m, start:start + oh * wp].reshape(m, oh, wp)
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


def conv2d(x: Array, spec: ConvSpec, weight: Array, bias: Array, *,
           out: Array | None = None) -> Array:
    """Dense (groups=1) or stride-1 depthwise 2-D cross-correlation with zero
    padding. out= is for a depthwise conv only, and may be x itself."""
    _check_nchw(x)
    if x.shape[1] != spec.in_channels:
        raise ValueError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    weight = np.asarray(weight, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    if weight.shape != spec.weight_shape():
        raise ValueError(f"weight shape {weight.shape} != expected {spec.weight_shape()}")
    if bias.shape != (spec.out_channels,):
        raise ValueError(f"bias shape {bias.shape} != ({spec.out_channels},)")
    oh, ow = spec.out_size(x.shape[2], x.shape[3])

    if spec.groups == spec.in_channels == spec.out_channels:
        if spec.stride != 1:
            raise ValueError(f"depthwise convs support stride 1 only, got stride={spec.stride}")
        if out is not None:
            _check_out(out, (x.shape[0], spec.out_channels, oh, ow), x.dtype, x)
        return _conv_depthwise(x, weight, bias, spec.padding, oh, ow, out)
    if out is not None:
        raise ValueError("out= is for a depthwise conv only: each output channel "
                         "of a dense conv reads every input channel")
    if spec.groups != 1:
        raise ValueError(f"only dense (groups=1) and depthwise convs are supported, got groups="
                         f"{spec.groups} for {spec.in_channels} -> {spec.out_channels} channels")
    p = spec.padding
    xp = _pad_hw(x, p) if p else x
    return _conv_dense(xp, weight, bias, spec.stride, oh, ow)


def _check_bn(c: int, gamma: Array, beta: Array, mean: Array, var: Array) -> None:
    for name, v in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if np.shape(v) != (c,):
            raise ValueError(f"{name} must have shape ({c},)")
    if not bool(np.all(np.asarray(var) >= 0)):
        raise ValueError("var must be non-negative")


def batchnorm_infer(x: Array, gamma: Array, beta: Array, mean: Array,
                    var: Array, eps: float = BN_EPS) -> Array:
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


def _gelu_float32(x: Array, out: Array | None = None) -> Array:
    # x * Phi(x), with Phi(x) = (1 + tanh(xl * g(t))) / 2, xl = max(x, -S) and
    # t = min(xl^2, 32), in 18 ufunc passes per block. xl is also the final
    # factor: it equals x except below -S, where Phi is exactly 0 and the
    # product is -0.0 either way, -inf included. Phi is formed before the
    # product, so gelu(float32 max) does not overflow; xl^2 and xl * g may,
    # harmlessly (min and tanh take inf to 32 and 1); xl^2 and the products
    # after it may underflow for tiny x, as harmlessly. Only those warnings
    # are silenced. Fixed-size blocks, two scratch buffers and in-place ufuncs:
    # each element sees the same exactly rounded float32 op sequence whatever
    # its position or the array size, so results are repacking invariant.
    # The first pass reads a block of x before any pass writes that block of
    # out, so out may be x itself.
    flat = x.reshape(-1)
    if out is None:
        out = np.empty(x.shape, dtype=np.float32)
    out_flat = out.reshape(-1)
    lo, t_max = _gelu_bounds()
    n = min(flat.size, _GELU_BLOCK)
    t_buf = np.empty(n, dtype=np.float32)
    g_buf = np.empty(n, dtype=np.float32)
    with np.errstate(over="ignore", under="ignore"):
        for start in range(0, flat.size, _GELU_BLOCK):
            xb = flat[start:start + _GELU_BLOCK]
            m = xb.size
            xl = out_flat[start:start + m]
            t, g = t_buf[:m], g_buf[:m]
            np.maximum(xb, lo[:m], out=xl)
            np.multiply(xl, xl, out=t)
            np.minimum(t, t_max[:m], out=t)
            np.multiply(t, _GELU_G[0], out=g)  # Horner in t
            for c in _GELU_G[1:-1]:
                g += c
                g *= t
            g += _GELU_G[-1]
            g *= xl
            np.tanh(g, out=g)
            g += _ONE_F32
            g *= _HALF_F32
            xl *= g
    return out


def _rational(z: Array, ratio: tuple, p: Array, q: Array) -> Array:
    # num(z) / den(z) into p, through the scratch q, in Cody's op order
    num, den = ratio
    np.multiply(z, num[0], out=p)
    for a in num[1:-1]:
        p += a
        p *= z
    p += num[-1]
    np.add(z, den[0], out=q)
    q *= z
    for b in den[1:-1]:
        q += b
        q *= z
    q += den[-1]
    p /= q
    return p


def _erfc_far(y: Array) -> Array:
    # erfc(y) for _ERF_NEAR < y <= _ERF_CLAMP: R2 everywhere, R3 over it
    # above _ERF_FAR, then the two exp factors
    r, q = np.empty_like(y), np.empty_like(y)
    _rational(y, _ERF_R2, r, q)
    far = np.flatnonzero(y > _ERF_FAR)
    if far.size:
        yf = y[far]
        z = 1.0 / (yf * yf)
        r3 = _rational(z, _ERF_R3, np.empty_like(z), q[:far.size])
        r3 *= z
        r[far] = (_INV_SQRTPI - r3) / yf
    s = np.multiply(y, 16.0, out=q)
    np.trunc(s, out=s)
    s *= 0.0625
    d = np.subtract(s, y)  # -(y - s) * (y + s), exactly negated
    d *= s + y
    r *= np.exp(d, out=d)
    np.multiply(s, s, out=s)
    np.negative(s, out=s)
    r *= np.exp(s, out=s)
    return r


def _erf(x: Array) -> Array:
    """erf in float64 by Cody's approximations (see _ERF_R1): at most 6 ulp
    from math.erf in the tests' sweeps and a 4 M-point search above
    0.46875, where 1 - erfc cancels. Odd bit for bit, erf(-0.0) = -0.0,
    erf(±inf) = ±1 and erf(nan) = nan, with no floating-point warning. The
    kernel runs over fixed-size blocks, as _gelu_float32 does, with R1 on
    every element and the erfc ranges on the elements above 0.46875 only:
    each element's op sequence depends on its value alone."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.empty(np.shape(x))
    out_flat = out.reshape(-1)
    n = min(flat.size, _ERF_BLOCK)
    y_buf, z_buf, q_buf = (np.empty(n) for _ in range(3))
    for start in range(0, flat.size, _ERF_BLOCK):
        xb = flat[start:start + _ERF_BLOCK]
        m = xb.size
        y, z, q = y_buf[:m], z_buf[:m], q_buf[:m]
        np.abs(xb, out=y)
        np.minimum(y, _ERF_CLAMP, out=y)
        np.multiply(y, y, out=z)
        e = _rational(z, _ERF_R1, out_flat[start:start + m], q)
        e *= xb
        near = np.flatnonzero(y > _ERF_NEAR)
        if near.size:
            c = _erfc_far(y[near])
            np.subtract(0.5, c, out=c)
            c += 0.5
            e[near] = np.copysign(c, xb[near])
    return out


def _phi(x: Array) -> Array:
    """Standard normal CDF, 0.5 * (1 + erf(x / sqrt 2)), computed in float64
    and returned in x's float type: exactly 0 below -6 sqrt 2 and 1 above
    6 sqrt 2."""
    phi = _erf(np.multiply(x, _INV_SQRT2, dtype=np.float64))
    phi += 1.0
    phi *= 0.5
    return phi.astype(np.result_type(x, 1.0), copy=False)


def gelu(x: Array, *, out: Array | None = None) -> Array:
    """GeLU, x * Phi(x), with Phi the standard normal CDF (erf form), into
    out when given (it may be x itself).

    float32: Phi = (1 + tanh(x * g(x^2))) / 2 with g a fitted polynomial
    (absolute GeLU error at most 2e-6 against float64, checked over every
    float32), exactly 0 and 1 beyond a saturation point S, so gelu(x) is x
    from S up and -0.0 from -S down. Other dtypes: in float64, with
    the erf of Cody's approximations (_erf, at most 6 ulp from math.erf). In
    every dtype gelu(+inf) = +inf, gelu(-inf) = -0.0 and gelu(nan) = nan,
    with no floating-point warning.
    """
    if out is not None:
        _check_out(out, np.shape(x), np.result_type(x, 1.0), x)
    if getattr(x, "dtype", None) == np.float32:
        return _gelu_float32(np.asarray(x), out)
    # tiny x underflows harmlessly: in x / sqrt 2, in _erf's y * y and in
    # the product below
    with np.errstate(under="ignore"):
        phi = _phi(x)
        # a finite stand-in for -inf, where Phi is exactly 0: the product is
        # then -0.0, where -inf * 0 would be nan with an invalid-value warning
        out = np.maximum(x, np.finfo(phi.dtype).min, out=out)
        out *= phi
    return out


def gelu_grad(x: Array) -> Array:
    """Derivative of exact GeLU: Phi(x) + x * phi(x), with the float64 Phi
    of gelu (Cody's erf, at most 6 ulp from math.erf) in every dtype. It is
    0 at -inf and 1 at +inf, with no floating-point warning; nan stays
    nan."""
    # phi(40) underflows to 0 even in float64, so x * phi is the same ±0 with
    # x clamped there, and x * x cannot overflow nor inf * 0 give nan
    xc = np.clip(x, -40.0, 40.0)
    phi = np.exp(-0.5 * xc * xc) * _INV_SQRT2PI
    return _phi(x) + xc * phi


def concat_channels(a: Array, b: Array) -> Array:
    _check_nchw(a, "a")
    _check_nchw(b, "b")
    if not (a.shape[0] == b.shape[0] and a.shape[2:] == b.shape[2:]):
        raise ValueError(f"batch/spatial mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def _check_same_shape(a: Array, b: Array) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def elem_add(a: Array, b: Array, *, out: Array | None = None) -> Array:
    """a + b, into out when given (it may be a or b itself)."""
    _check_same_shape(a, b)
    if out is None:
        return a + b
    _check_out(out, a.shape, np.result_type(a, b), a, b)
    return np.add(a, b, out=out)


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
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got {x.ndim}-D")
    weight = np.asarray(weight, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    if not (weight.ndim == 2 and weight.shape[1] == x.shape[1]):
        raise ValueError(f"weight shape {weight.shape} incompatible with input {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"bias shape {bias.shape} != ({weight.shape[0]},)")
    # one matvec per batch row, same rationale as the conv kernel
    return _matmul(weight, x[:, :, None])[:, :, 0] + bias


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


def bn_scale(p: ConvBn, dtype) -> Array:
    """p's batch-norm scale gamma / sqrt(var + BN_EPS), computed in dtype."""
    return np.asarray(p.gamma, dtype) / np.sqrt(np.asarray(p.var, dtype) + BN_EPS)


def conv_bn(x: Array, p: ConvBn, *, out: Array | None = None) -> Array:
    """conv2d then batchnorm_infer, with the batch norm folded into the conv;
    out= as conv2d's, for a stride-1 depthwise conv only.

    The folded weight is weight * scale and the folded bias is
    (bias - mean) * scale + beta, with scale = bn_scale(p, x.dtype), all
    computed in x's dtype on every call: the result tracks any in-place
    change to p's arrays. It equals the unfolded pair up to rounding.
    """
    c = p.spec.out_channels
    if not (np.shape(p.weight) == p.spec.weight_shape() and np.shape(p.bias) == (c,)):
        raise ValueError(f"weight/bias shapes {np.shape(p.weight)}, {np.shape(p.bias)} do not "
                         f"match {p.spec.weight_shape()}, ({c},)")
    _check_bn(c, p.gamma, p.beta, p.mean, p.var)
    dt = x.dtype
    scale = bn_scale(p, dt)
    weight = np.asarray(p.weight, dt) * scale.reshape(-1, 1, 1, 1)
    bias = (np.asarray(p.bias, dt) - np.asarray(p.mean, dt)) * scale + np.asarray(p.beta, dt)
    return conv2d(x, p.spec, weight, bias, out=out)

