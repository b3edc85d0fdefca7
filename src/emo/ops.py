"""Forward primitives and their vector-Jacobian products.

Everything here is a pure function over ndarrays. Convolution, matrix
product, softmax, the two normalizations, and the two activations each come
with a hand-written VJP; composition of primitives into blocks (with tape
recording) lives in autograd.py.

In 32-bit mode all dot products accumulate in 64-bit (operands are upcast
for the contraction and the result is cast back), so f32 results track the
f64 oracle closely.

Convolution is tap-decomposed: each of the k*k kernel taps contracts its
shifted, strided slice of the upcast, zero-padded input with the tap's
weights. A depth-wise conv multiplies each slice per channel and
accumulates in row-major tap order, exactly the order of the plain-loop
oracle (tap by tap, starting from the first product), so in f64 it equals
that oracle bit for bit; it builds neither a k*k-times-larger patch tensor
nor a padded copy of the whole input. It runs channels-last, in tiles of
_TILE elements of output rows: each tile first copies the input rows its
taps read, upcast, padded and split into column phases, into one tile
buffer that the call reuses, so a tap multiplies contiguous rows of
channels and every tap of a tile reads input that is already in L2. Its
input cotangent is built the same way, per tile of input rows, each element
adding its taps' products to 0.0 in row-major tap order. Tiling changes the
schedule, never any element's sequence of operations: every output is
bit-identical to evaluating the taps over the whole map. Any other conv is
one grouped matmul: a 1x1 conv over the upcast input itself, a dense k x k
conv (the stem, whose input has few channels) over the k*k slices of the
padded input stacked into one matrix. Those f64 operands live only through
the matmul, and the epilogue adds the f64 bias while it casts the product
into the input's dtype, rounding each sum once. Its VJP, and every weight
gradient, walks the same taps over the whole map, scattering each tap's
input cotangent back onto its slice. silu and gelu are evaluated over flat
tiles in the same way.

Given an array `dydx`, silu and gelu also write their derivative into it,
from the same sigmoid or erf that gives y. silu_vjp and gelu_vjp take that
array, never x, and only multiply g by it: the forward kernel is the one
place a derivative is evaluated. silu's dydx has x's dtype, gelu's is f64
(its VJP multiplies in f64 and casts into x's dtype), and a plain call
without dydx computes no derivative.

The VJPs of primitives with several inputs take `need=`, one flag per
differentiable input (required). An unflagged gradient is returned as None
and costs nothing, which is how the tape skips weight gradients when only
the input is being differentiated. A VJP takes only what it reads: an input
that no flagged gradient reads may be passed as None, with its shape and
dtype given by required keywords where the VJP needs them, so the tape never
has to keep it. No VJP writes into its incoming cotangent.

A cost meter can be installed with `cost_meter()`; while active, every
primitive reports its multiply-accumulate count and the auxiliary
element-wise work (bias adds, normalization, activation, softmax) of the
calls it executes. Meters nest: a call counts in every meter open around it.
`CostMeter` is the one statement of the counted fields: a static `CostLine`
is a CostMeter with a name, a category and a parameter count, and
`analysis.CostReport` is a target's total CostLine.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

# ---------------------------------------------------------------------------
# process heap

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped() -> None:
    """Let glibc keep freed heap mapped, so the next call reuses warm pages.

    By default glibc serves blocks above its dynamic mmap threshold (128 KiB
    at start) with fresh mmaps and gives freed heap at the top back to the
    kernel, so every call faults its outputs' and temporaries' pages in
    again. Measured on a 2 vCPU Xeon (glibc 2.36, numpy 2.4.6), per call: a
    64-channel f64 MMB forward at 28x28 took 3.5k minor faults, an emo-1m
    f32 forward at 224 3.0k, and a 20-coordinate gradient check of that MMB
    116k, which spent 190-350 ms of its 0.8-1.3 s in the kernel. Fixing the
    mmap threshold at 32 MiB (glibc's own ceiling for its dynamic threshold,
    the largest it accepts on 64-bit) and the trim threshold at 1 GiB keeps
    those pages mapped: a steady-state call of any of the three faults none.
    No value changes. The setting is process-wide, like numpy's own
    import-time choice to madvise large array buffers MADV_HUGEPAGE.
    Without a C library `mallopt` (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_heap_mapped()

# ---------------------------------------------------------------------------
# cost metering


@dataclass(kw_only=True)
class CostMeter:
    """The counted fields: a meter's running totals, and every record of the same work."""

    macs: int = 0                # contraction multiply-accumulates
    softmax_elems: int = 0       # attention-matrix entries normalized
    bias_adds: int = 0
    norm_elems: int = 0
    act_elems: int = 0
    other_adds: int = 0          # residual adds, pooling sums

    @property
    def flops(self) -> int:
        """2x MACs plus 3 flops per softmax element (exp, subtract, divide)."""
        return 2 * self.macs + 3 * self.softmax_elems


@dataclass
class CostLine(CostMeter):
    """The static count of one named piece of work: the meter's fields plus its parameters."""

    name: str
    category: str
    params: int = 0


_METERS: contextvars.ContextVar[tuple[CostMeter, ...]] = contextvars.ContextVar("emo_cost_meters", default=())


@contextlib.contextmanager
def cost_meter():
    """Context manager that counts the work of every primitive call inside.

    A meter opened inside another one counts that work in both, so a
    per-stage meter inside a caller's meter leaves the caller's totals whole.
    """
    meter = CostMeter()
    token = _METERS.set((*_METERS.get(), meter))
    try:
        yield meter
    finally:
        _METERS.reset(token)


def _meter(**counts):
    for m in _METERS.get():
        for k, v in counts.items():
            setattr(m, k, getattr(m, k) + int(v))


# ---------------------------------------------------------------------------
# convolution


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract of a 2-D grouped convolution (cross-correlation)."""

    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    groups: int = 1
    bias: bool = True

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide in_channels={self.in_channels} "
                f"and out_channels={self.out_channels}"
            )

    @property
    def depthwise(self) -> bool:
        return self.groups == self.in_channels == self.out_channels

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.padding - self.kernel) // self.stride + 1
        wo = (w + 2 * self.padding - self.kernel) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ValueError(f"conv output would be empty for input {h}x{w} with {self}")
        return ho, wo

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)

    def macs(self, h: int, w: int, batch: int = 1) -> int:
        ho, wo = self.out_hw(h, w)
        return batch * (self.out_channels * (self.in_channels // self.groups) * self.kernel ** 2) * ho * wo


# Tile of the depth-wise kernels and the activation maps, in elements: 1 << 15
# f64 values are 256 KiB, so a tile, the input rows it reads and its temporaries
# fit together in a 2 MiB per-core L2, and a tap after the first reads from L2,
# not from L3 or memory.
_TILE = 1 << 15


def _row_tiles(n: int, rows: int, row_elems: int):
    """(n0, n1, r0, r1) tiles of an (N, rows, ...) map, about _TILE elements each.

    An image of at most one tile is cut into runs of whole images; a larger
    one into runs of rows of one image, the last run possibly shorter.
    """
    per = max(1, _TILE // row_elems)
    if per >= rows:
        imgs = max(1, per // rows)
        return [(i, min(i + imgs, n), 0, rows) for i in range(0, n, imgs)]
    return [(i, i + 1, r, min(r + per, rows)) for i in range(n) for r in range(0, rows, per)]


def _taps(spec: ConvSpec, ho: int, wo: int):
    """Yield (i, j, window) for every kernel tap in row-major order.

    `window` indexes the strided (N, C, Ho, Wo) slice of the padded input
    that tap (i, j) multiplies.
    """
    s = spec.stride
    for i in range(spec.kernel):
        for j in range(spec.kernel):
            yield i, j, (slice(None), slice(None), slice(i, i + s * ho, s), slice(j, j + s * wo, s))


def _padded64(x: np.ndarray, p: int) -> np.ndarray:
    """x upcast to f64 and zero-padded by p on each spatial side, in one copy."""
    if not p:
        return x.astype(np.float64, copy=False)
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p))
    xp[:, :, p : p + h, p : p + w] = x
    return xp


def _tap_matrix(xp: np.ndarray, spec: ConvSpec, ho: int, wo: int) -> np.ndarray:
    """The taps' slices of the padded input as one (N, G, k*k*C_in/G, Ho*Wo) matrix.

    Row t * C_in/G + c holds channel c of tap t. A 1x1 conv's matrix is its
    single slice, a view of the input when the conv is unstrided.
    """
    n, g, kk = xp.shape[0], spec.groups, spec.kernel ** 2
    cig = spec.in_channels // g
    if kk == 1:
        return xp[:, :, :: spec.stride, :: spec.stride].reshape(n, g, cig, ho * wo)
    cols = np.empty((n, g, kk, cig, ho, wo))
    for t, (_, _, win) in enumerate(_taps(spec, ho, wo)):
        cols[:, :, t] = xp[win].reshape(n, g, cig, ho, wo)
    return cols.reshape(n, g, kk * cig, ho * wo)


def _tap_weights(w: np.ndarray, wo: int) -> np.ndarray:
    """Depth-wise weights (C, 1, k, k) as a contiguous (k, k, Wo, C) f64 array.

    The (Wo, C) row a tap multiplies is one contiguous run: a row of the
    input in the column-phase layout, or of the cotangent's slab. With its
    channel vector repeated Wo times, the tap multiplies that row in one
    run, not in Wo short ones.
    """
    c, _, k, _ = w.shape
    wt = np.empty((k, k, wo, c))
    wt[...] = w[:, 0].transpose(1, 2, 0)[:, :, None, :]
    return wt


def _depthwise(x: np.ndarray, w: np.ndarray, b, spec: ConvSpec, ho: int, wo: int) -> np.ndarray:
    """Depth-wise conv, channels-last, in row tiles of the output.

    Each tile first copies the input rows its taps read, upcast to f64,
    zero-padded and split into s column phases, into one tile buffer
    (tile, rows, s, ceil(Wp / s), C) that the call reuses: padded column v
    sits at [v % s, v // s], so the columns j, j + s, j + 2s, ... that tap
    column j reads are contiguous. Pad columns are never written, so they stay
    zero; pad rows are zeroed in each tile that reads them. The tile then sums
    its taps in row-major order, the first product starting the sum, adds the
    f64 bias and is cast into the NCHW output.
    """
    n, c, h, wd = x.shape
    k, s, p = spec.kernel, spec.stride, spec.padding
    wt = _tap_weights(w, wo)
    b64 = None if b is None else np.asarray(b, dtype=np.float64)
    y = np.empty((n, c, ho, wo), x.dtype)
    tiles = _row_tiles(n, ho, wo * c)
    n0, n1, r0, r1 = tiles[0]
    acc_buf, tmp_buf = np.empty((2, n1 - n0, r1 - r0, wo, c))
    # output rows r0..r1-1 read padded rows r0 * s .. (r1 - 1) * s + k - 1
    xt_buf = np.zeros((n1 - n0, (r1 - r0 - 1) * s + k, s, -(-(wd + 2 * p) // s), c))
    for n0, n1, r0, r1 in tiles:
        acc, tmp = acc_buf[: n1 - n0, : r1 - r0], tmp_buf[: n1 - n0, : r1 - r0]
        q0, rows = r0 * s, (r1 - r0 - 1) * s + k
        xt = xt_buf[: n1 - n0, :rows]
        # the tile's rows lo..hi-1 hold input rows q0 + lo - p .., the rest are padding
        lo, hi = min(max(p - q0, 0), rows), min(max(p + h - q0, 0), rows)
        xt[:, :lo] = 0.0
        xt[:, hi:] = 0.0
        for r in range(s):
            c0 = (r - p) % s  # first input column whose padded column is in phase r
            cols = x[n0:n1, :, q0 + lo - p : q0 + hi - p, c0::s]
            t0 = (c0 + p) // s
            xt[:, lo:hi, r, t0 : t0 + cols.shape[3]] = cols.transpose(0, 2, 3, 1)
        for i in range(k):
            taps = xt[:, i : i + (r1 - r0 - 1) * s + 1 : s]
            for j in range(k):
                win = taps[:, :, j % s, j // s : j // s + wo]
                if i == j == 0:
                    np.multiply(win, wt[0, 0], out=acc)
                else:
                    acc += np.multiply(win, wt[i, j], out=tmp)
        if b64 is not None:
            acc += b64
        y[n0:n1, :, r0:r1] = acc.transpose(0, 3, 1, 2)
    return y


def _depthwise_gx(g: np.ndarray, w: np.ndarray, spec: ConvSpec, shape, dtype) -> np.ndarray:
    """Input cotangent of a depth-wise conv, channels-last, in row tiles of the input.

    Each tile starts from 0.0 and adds g * w of every tap that read it, in
    row-major tap order; the tile's slab of g is transposed once. Padding
    rows are never formed and padding columns are cropped.
    """
    n, c, h, wd = shape
    k, s, p = spec.kernel, spec.stride, spec.padding
    ho, wo = g.shape[2:]
    wp = wd + 2 * p
    wt = _tap_weights(w, wo)
    gx = np.empty(shape, dtype)
    tiles = _row_tiles(n, h, wp * c)
    n0, n1, q0, q1 = tiles[0]
    nb, rows = n1 - n0, q1 - q0
    # a tile of `rows` input rows is read by at most (rows + k - 2) // s + 1
    # output rows, and through one kernel row by at most ceil(rows / s)
    acc_buf = np.empty((nb, rows, wp, c))
    gs_buf = np.empty((nb, min(ho, (rows + k - 2) // s + 1), wo, c))
    tmp_buf = np.empty((nb, min(ho, -(-rows // s)), wo, c))
    for n0, n1, q0, q1 in tiles:
        acc = acc_buf[: n1 - n0, : q1 - q0]
        acc.fill(0.0)
        # input row q (padded row q + p) is read through kernel row i by output row o where o * s + i = q + p
        lo, hi = max(0, -(-(q0 + p - k + 1) // s)), min(ho, -(-(q1 + p) // s))
        gs = gs_buf[: n1 - n0, : hi - lo]
        gs[...] = g[n0:n1, :, lo:hi].transpose(0, 2, 3, 1)
        for i in range(k):
            o0, o1 = max(lo, -(-(q0 + p - i) // s)), min(hi, -(-(q1 + p - i) // s))
            if o0 >= o1:
                continue
            dst = acc[:, o0 * s + i - p - q0 : (o1 - 1) * s + i - p - q0 + 1 : s]
            src, tmp = gs[:, o0 - lo : o1 - lo], tmp_buf[: n1 - n0, : o1 - o0]
            for j in range(k):
                dst[:, :, j : j + s * (wo - 1) + 1 : s] += np.multiply(src, wt[i, j], out=tmp)
        gx[n0:n1, :, q0:q1] = acc[:, :, p : p + wd].transpose(0, 3, 1, 2)
    return gx


def conv2d(x, w, spec: ConvSpec, b=None) -> np.ndarray:
    """Grouped 2-D cross-correlation with zero padding.

    x: (N, C_in, H, W); w: (C_out, C_in/G, k, k); b: (C_out,) or None.
    """
    x, w = np.asarray(x), np.asarray(w)
    n, c, h, wdt = x.shape
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.in_channels}")
    if w.shape != spec.weight_shape():
        raise ValueError(f"weights shaped {w.shape}, spec expects {spec.weight_shape()}")
    if (b is None) == spec.bias:
        raise ValueError("bias presence must match spec.bias")
    ho, wo = spec.out_hw(h, wdt)
    _meter(macs=spec.macs(h, wdt, batch=n))
    if b is not None:
        _meter(bias_adds=n * spec.out_channels * ho * wo)
    if spec.depthwise:
        return _depthwise(x, w, b, spec, ho, wo)
    g = spec.groups
    cig, cog = spec.in_channels // g, spec.out_channels // g
    # (C_out, C_in/G, k, k) -> (G, C_out/G, k*k*C_in/G), columns ordered as _tap_matrix's rows
    wm = w.astype(np.float64, copy=False).transpose(0, 2, 3, 1).reshape(g, cog, spec.kernel ** 2 * cig)
    # the f64 input and tap matrix are temporaries of the matmul alone
    y = np.matmul(wm, _tap_matrix(_padded64(x, spec.padding), spec, ho, wo)).reshape(n, spec.out_channels, ho, wo)
    if b is None:
        return y.astype(x.dtype, copy=False)
    # one pass adds the f64 bias and rounds each sum into x's dtype, as (y + b).astype(x.dtype) does
    out = y if x.dtype == y.dtype else np.empty(y.shape, x.dtype)
    return np.add(y, np.asarray(b, dtype=np.float64).reshape(1, -1, 1, 1), out=out, casting="same_kind")


def conv2d_vjp(g_out, x, w, spec: ConvSpec, *, need, shape, dtype):
    """Gradients of sum(g_out * conv2d(x, w, spec, b)) w.r.t. (x, w, b).

    `need` flags which of (x, w, b) to differentiate. An unflagged gradient
    is returned as None and none of its work is done: without w the input
    is neither upcast nor padded. gb is None for a bias-free spec.

    Only gw reads x and only gx reads w, so either may be None when that
    gradient is unflagged. `shape` and `dtype` are x's.
    """
    g_out = np.asarray(g_out)
    need_x, need_w, need_b = need
    n, c, h, wdt = shape
    p, grp = spec.padding, spec.groups
    ho, wo = spec.out_hw(h, wdt)
    if g_out.shape != (n, spec.out_channels, ho, wo):
        raise ValueError(f"upstream shaped {g_out.shape}, expected {(n, spec.out_channels, ho, wo)}")
    cig, cog = spec.in_channels // grp, spec.out_channels // grp

    gb = g_out.sum(axis=(0, 2, 3)).astype(dtype, copy=False) if spec.bias and need_b else None

    gx = gw = None
    if need_x and spec.depthwise:
        gx = _depthwise_gx(g_out, np.asarray(w), spec, (n, c, h, wdt), dtype)
    dense_x = need_x and not spec.depthwise
    if not (dense_x or need_w):
        return gx, gw, gb
    g64 = g_out.astype(np.float64, copy=False)
    w64 = np.asarray(w).astype(np.float64, copy=False) if dense_x else None
    xp = _padded64(np.asarray(x), p) if need_w else None
    gxp = np.zeros((n, c, h + 2 * p, wdt + 2 * p)) if dense_x else None
    gw = np.empty(spec.weight_shape()) if need_w else None
    gm = g64.reshape(n, grp, cog, ho * wo)
    for i, j, win in _taps(spec, ho, wo):
        # tap (i, j) read the slab xp[win]: scatter its cotangent back there
        if spec.depthwise:
            gw[:, 0, i, j] = np.einsum("nchw,nchw->c", g64, xp[win])
            continue
        if need_x:
            wt = w64[:, :, i, j].reshape(grp, cog, cig)
            gxp[win] += np.matmul(wt.transpose(0, 2, 1), gm).reshape(n, c, ho, wo)
        if need_w:
            xt = xp[win].reshape(n, grp, cig, ho * wo)
            gw[:, :, i, j] = np.matmul(gm, xt.transpose(0, 1, 3, 2)).sum(axis=0).reshape(spec.out_channels, cig)
    if dense_x:
        gx = (gxp[:, :, p : p + h, p : p + wdt] if p else gxp).astype(dtype, copy=False)
    if need_w:
        gw = gw.astype(dtype, copy=False)
    return gx, gw, gb


# ---------------------------------------------------------------------------
# matrix product


def matmul(a, b) -> np.ndarray:
    """Batched matrix product (..., m, n) @ (..., n, p) with 64-bit accumulation."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    out_dtype = np.result_type(a, b)
    y = np.matmul(a.astype(np.float64, copy=False), b.astype(np.float64, copy=False))
    batch = int(np.prod(y.shape[:-2])) if y.ndim > 2 else 1
    _meter(macs=batch * a.shape[-2] * a.shape[-1] * b.shape[-1])
    return y.astype(out_dtype, copy=False)


def matmul_vjp(g, a, b, *, need, shapes, dtypes):
    """grad_a = g @ b^T, grad_b = a^T @ g (broadcast batch dims reduced).

    `need` flags which of (a, b) to differentiate; the other is None. Only
    grad_b reads a and only grad_a reads b, so either may be None when that
    gradient is unflagged. `shapes` and `dtypes` are the (a, b) pairs.
    """
    g64 = np.asarray(g).astype(np.float64, copy=False)
    a_shape, b_shape = shapes
    a_dtype, b_dtype = dtypes
    ga = gb = None
    if need[0]:
        ga = np.matmul(g64, np.swapaxes(np.asarray(b), -1, -2).astype(np.float64, copy=False))
        ga = _unbroadcast(ga, a_shape).astype(a_dtype, copy=False)
    if need[1]:
        gb = np.matmul(np.swapaxes(np.asarray(a), -1, -2).astype(np.float64, copy=False), g64)
        gb = _unbroadcast(gb, b_shape).astype(b_dtype, copy=False)
    return ga, gb


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# softmax


def softmax_lastdim(x) -> np.ndarray:
    """Numerically stable softmax over the trailing axis, computed in its output array."""
    x = np.asarray(x)
    y = np.subtract(x, x.max(axis=-1, keepdims=True))
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    _meter(softmax_elems=x.size)
    return y


def softmax_lastdim_vjp(g, y):
    """VJP from the softmax output y: dx = (g - sum(g*y)) * y."""
    g, y = np.asarray(g), np.asarray(y)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - dot) * y


# ---------------------------------------------------------------------------
# normalization

NORM_EPS = 1e-5  # added to every variance; a Python float, so f32 stays f32

def batchnorm_inference(x, gamma, beta, mean, var) -> np.ndarray:
    """Per-channel affine normalization with stored running statistics.

    There is no training mode in this library; the statistics are inputs.
    """
    x = np.asarray(x)
    var = np.asarray(var)
    if not np.all(var > 0):  # a NaN fails this test too
        raise ValueError("batchnorm running variance must be positive")
    scale = (np.asarray(gamma) / np.sqrt(var + NORM_EPS)).reshape(1, -1, 1, 1)
    shift = (np.asarray(beta) - np.asarray(mean) * scale.reshape(-1)).reshape(1, -1, 1, 1)
    _meter(norm_elems=x.size)
    # in place, the add computes in the wider dtype and rounds once, as x * scale + shift does
    y = x * scale
    y += shift
    return y.astype(x.dtype, copy=False)


def batchnorm_inference_vjp(g, x, gamma, mean, var, *, need, dtype):
    """Gradients w.r.t. (x, gamma, beta); `need` flags which, the rest are None.

    No gradient reads beta, and only ggamma reads x, so x may be None when
    gamma is unflagged. `dtype` is x's.

    The VJP holds one map-sized scratch array at a time. ggamma comes first:
    xhat = (x - mean) * inv is built in one buffer and multiplied by g in
    it, then summed and dropped before gx is allocated. A step runs in place
    only where the buffer already has the dtype that step produces, and the
    product with g only where g has the buffer's memory order, since the
    sum's order follows the product's layout. So each gradient is
    bit-identical to its out-of-place expression, g * xhat summed included.
    """
    g = np.asarray(g)
    need_x, need_gamma, need_beta = need
    inv = 1.0 / np.sqrt(np.asarray(var) + NORM_EPS)
    gx = ggamma = gbeta = None
    if need_gamma:
        t = np.subtract(np.asarray(x), np.asarray(mean).reshape(1, -1, 1, 1))
        inv4 = inv.reshape(1, -1, 1, 1)
        t = np.multiply(t, inv4, out=t if t.dtype == np.result_type(t, inv4) else None)
        same_order = [s * t.itemsize for s in g.strides] == [s * g.itemsize for s in t.strides]
        t = np.multiply(g, t, out=t if same_order and t.dtype == np.result_type(g, t) else None)
        ggamma = t.sum(axis=(0, 2, 3)).astype(dtype, copy=False)
        del t
    if need_x:
        gx = (g * (np.asarray(gamma) * inv).reshape(1, -1, 1, 1)).astype(dtype, copy=False)
    if need_beta:
        gbeta = g.sum(axis=(0, 2, 3)).astype(dtype, copy=False)
    return gx, ggamma, gbeta


def layernorm_channels(x, gamma, beta) -> np.ndarray:
    """Layer normalization over the channel axis, per spatial position."""
    x = np.asarray(x)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + NORM_EPS)
    _meter(norm_elems=x.size)
    y = xhat * np.asarray(gamma).reshape(1, -1, 1, 1) + np.asarray(beta).reshape(1, -1, 1, 1)
    return y.astype(x.dtype, copy=False)


def layernorm_channels_vjp(g, x, gamma, *, need):
    """Gradients w.r.t. (x, gamma, beta); `need` flags which, the rest are None.

    No gradient reads beta.
    """
    g, x = np.asarray(g), np.asarray(x)
    need_x, need_gamma, need_beta = need
    gx = ggamma = gbeta = None
    if need_x or need_gamma:
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        xhat = (x - mu) * inv
    if need_x:
        gxhat = g * np.asarray(gamma).reshape(1, -1, 1, 1)
        # standard layernorm backward over the normalized axis
        gx = inv * (gxhat - gxhat.mean(axis=1, keepdims=True) - xhat * (gxhat * xhat).mean(axis=1, keepdims=True))
        gx = gx.astype(x.dtype, copy=False)
    if need_gamma:
        ggamma = (g * xhat).sum(axis=(0, 2, 3)).astype(x.dtype, copy=False)
    if need_beta:
        gbeta = g.sum(axis=(0, 2, 3)).astype(x.dtype, copy=False)
    return gx, ggamma, gbeta


# ---------------------------------------------------------------------------
# activations


def _sigmoid(x):
    """1 / (1 + exp(-x)) without overflow: exp only ever sees -|x|.

    Bit-identical to evaluating 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) for x < 0, in either precision.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # numerator max(x >= 0, e): 1 for x >= 0, e otherwise, exactly, since
    # 0 <= e <= 1; unlike a masked select it has no branch to mispredict
    out = np.greater_equal(x, 0, out=np.empty_like(e))
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def _map_tiles(f, *args):
    """f(*args) of an activation forward f, evaluated over flat chunks of _TILE elements.

    Chunk by chunk, f's temporaries stay in L2. f(x, [dydx,] out=o) writes its
    chunk of y, of x's dtype, into o and, given dydx, its chunk of the
    derivative into dydx. A map of at most two tiles, or one with an operand
    that is not C-contiguous, is evaluated whole, as f(*args).
    """
    shape, size = args[0].shape, args[0].size
    if size <= 2 * _TILE or not all(a.flags.c_contiguous for a in args):
        return f(*args)
    out = np.empty(shape, args[0].dtype)
    flat = [a.reshape(-1) for a in (out, *args)]
    for i in range(0, size, _TILE):
        f(*(a[i : i + _TILE] for a in flat[1:]), out=flat[0][i : i + _TILE])
    return out


def _check_dydx(name, dydx, shape, dtype):
    if dydx.shape != shape or dydx.dtype != dtype:
        raise ValueError(f"{name}: dydx must be {np.dtype(dtype)} shaped {shape}, got {dydx.dtype} {dydx.shape}")


def _silu_dydx(x, s, out):
    """silu'(x) = s * (1 + x * (1 - s)) from s = sigmoid(x), written into out.

    Each in-place step is the same IEEE operation, on the same dtypes, as in
    that expression, so the result is bit-identical to it.
    """
    d = np.subtract(1.0, s, out=out)
    d *= x
    d += 1.0
    d *= s
    return d


def _silu(x, dydx=None, out=None):
    s = _sigmoid(x)
    if dydx is not None:
        _silu_dydx(x, s, out=dydx)
    return np.multiply(x, s, out=out)


def silu(x, dydx=None) -> np.ndarray:
    """x * sigmoid(x).

    Given `dydx`, an array of x's shape and dtype, silu'(x) is written into
    it from the same sigmoid, for `silu_vjp(g, dydx)`.
    """
    x = np.asarray(x)
    _meter(act_elems=x.size)
    if dydx is None:
        return _map_tiles(_silu, x)
    _check_dydx("silu", dydx, x.shape, x.dtype)
    return _map_tiles(_silu, x, dydx)


def silu_vjp(g, dydx):
    """g * silu'(x), from the dydx that `silu(x, dydx)` wrote.

    Bit-identical to g * (s * (1 + x * (1 - s))) with s = sigmoid(x).
    """
    return np.asarray(g) * dydx


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _erf1(x):
    """1 + erf(x / sqrt(2)) in one f64 buffer, for f32 x too: the constant is an np.float64."""
    t = np.multiply(x, _INV_SQRT2)
    erf(t, out=t)
    t += 1.0
    return t


def _gelu_dydx(x, t, out):
    """gelu'(x) = Phi(x) + x * pdf(x), written into the f64 out, from t = _erf1(x), which it overwrites.

    Phi(x) is 0.5 * t and pdf(x) is exp(-x * x / 2) / sqrt(2 pi), whose
    exponent is evaluated in x's dtype. The np.float64 constant promotes f32
    work to f64, so a step runs in place only where its buffer already has
    the dtype that step produces, and the result is bit-identical to
    0.5 * t + x * (exp(x * -0.5 * x) * _INV_SQRT2PI) evaluated out of place.
    """
    t *= 0.5
    e = np.multiply(x, -0.5, out=out if x.dtype == np.float64 else None)
    e *= x
    np.exp(e, out=e)
    d = np.multiply(e, _INV_SQRT2PI, out=e if e.dtype == np.float64 else out)
    d *= x
    d += t
    return d


def _gelu(x, dydx=None, out=None):
    t = _erf1(x)
    h = np.multiply(x, 0.5, out=out)
    y = np.multiply(h, t, out=h)
    if dydx is not None:
        _gelu_dydx(x, t, out=dydx)
    return y


def gelu(x, dydx=None) -> np.ndarray:
    """Exact Gaussian-CDF GeLU: x * Phi(x), as (x * 0.5) * (1 + erf(x / sqrt(2))).

    The erf factor is evaluated in f64 in one buffer per tile and the product
    is cast into x's dtype, so the result is bit-identical to evaluating that
    expression out of place and casting it back. Given `dydx`, an f64 array
    of x's shape, gelu'(x) is written into it from the same erf, for
    `gelu_vjp(g, dydx, x.dtype)`.
    """
    x = np.asarray(x)
    _meter(act_elems=x.size)
    if dydx is None:
        return _map_tiles(_gelu, x)
    _check_dydx("gelu", dydx, x.shape, np.float64)
    return _map_tiles(_gelu, x, dydx)


def gelu_vjp(g, dydx, dtype):
    """g * gelu'(x) in f64, from the f64 dydx that `gelu(x, dydx)` wrote, cast into x's `dtype`.

    Bit-identical to evaluating g * gelu'(x) out of place and casting it back.
    """
    return np.multiply(g, dydx, out=np.empty(dydx.shape, dtype))
