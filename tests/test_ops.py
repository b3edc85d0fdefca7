import dataclasses
import functools
import hashlib
import itertools
import math
import platform
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from emo import ConvSpec, MMBConfig, Rng, cost_meter, mmb_forward, mmb_init_params
from emo import ops
from emo.attention import MASK_NEG


def identity_dw_kernel(c, k=3):
    w = np.zeros((c, 1, k, k))
    w[:, 0, k // 2, k // 2] = 1.0
    return w


# ---------------------------------------------------------------------------
# conv2d


def test_conv_identity_kernel_preserves_input():
    spec = ConvSpec(1, 1, kernel=3, stride=1, padding=1, groups=1, bias=False)
    x = np.ones((1, 1, 3, 3))
    y = ops.conv2d(x, identity_dw_kernel(1), spec)
    assert np.array_equal(y, x)


def test_conv_pointwise_scaling():
    spec = ConvSpec(1, 1, kernel=1, bias=False)
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    w = np.full((1, 1, 1, 1), 2.0)
    y = ops.conv2d(x, w, spec)
    assert np.array_equal(y[0, 0], [[2.0, 4.0], [6.0, 8.0]])


def test_conv_mac_count_is_half_of_flops_formula():
    # C=4, k=3, G=1, 8x8, stride 1, pad 1: (4*9)*64*4 = 9216 MACs = 18432/2
    spec = ConvSpec(4, 4, kernel=3, padding=1)
    x = np.random.default_rng(0).normal(size=(1, 4, 8, 8))
    w = np.random.default_rng(1).normal(size=spec.weight_shape())
    b = np.zeros(4)
    with cost_meter() as m:
        ops.conv2d(x, w, spec, b)
    assert m.macs == 9216
    assert 2 * m.macs == 18432
    assert spec.macs(8, 8) == 9216


def _conv_reference(x, w, spec, b=None):
    """Plain-loop grouped cross-correlation oracle."""
    n, cin, h, wd = x.shape
    k, s, p, g = spec.kernel, spec.stride, spec.padding, spec.groups
    cout = spec.out_channels
    ho, wo = spec.out_hw(h, wd)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros((n, cout, ho, wo))
    cig, cog = cin // g, cout // g
    for ni in range(n):
        for co in range(cout):
            gi = co // cog
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(cig):
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[ni, gi * cig + ci, oi * s + ki, oj * s + kj] * w[co, ci, ki, kj]
                    y[ni, co, oi, oj] = acc
    if b is not None:
        y += b.reshape(1, -1, 1, 1)
    return y


@pytest.mark.parametrize("spec", [
    ConvSpec(3, 5, kernel=3, padding=1),
    ConvSpec(4, 6, kernel=3, stride=2, padding=1, groups=2),
    ConvSpec(4, 4, kernel=5, padding=2, groups=4),
    ConvSpec(2, 4, kernel=1, bias=False),
])
def test_conv_matches_loop_oracle(spec):
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, spec.in_channels, 7, 6))
    w = rng.normal(size=spec.weight_shape())
    b = rng.normal(size=spec.out_channels) if spec.bias else None
    got = ops.conv2d(x, w, spec, b)
    want = _conv_reference(x, w, spec, b)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k, s, p", list(itertools.product((3, 5), (1, 2), (0, 1, 2))))
def test_depthwise_conv_bit_identical_to_loop_oracle(k, s, p):
    # taps accumulate in the oracle's order, so f64 results agree exactly
    spec = ConvSpec(4, 4, kernel=k, stride=s, padding=p, groups=4)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 4, 9, 8))
    w = rng.normal(size=spec.weight_shape())
    b = rng.normal(size=4)
    assert np.array_equal(ops.conv2d(x, w, spec, b), _conv_reference(x, w, spec, b))


def _depthwise_taps_nchw(x, w, spec, b):
    """Per-tap NCHW depth-wise conv: the first tap's product starts the f64 sum,
    each later tap adds its own in row-major tap order, then the f64 bias."""
    k, s, p = spec.kernel, spec.stride, spec.padding
    ho, wo = spec.out_hw(*x.shape[2:])
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    y = None
    for i, j in itertools.product(range(k), repeat=2):
        t = xp[:, :, i : i + s * ho : s, j : j + s * wo : s] * w[:, 0, i, j].astype(np.float64).reshape(1, -1, 1, 1)
        y = t if y is None else y + t
    return (y + b.astype(np.float64).reshape(1, -1, 1, 1)).astype(x.dtype)


def _depthwise_gx_taps_nchw(g, w, spec, x_shape):
    """Per-tap NCHW depth-wise input cotangent: from 0.0, each tap adds g * w into the
    padded input slice it read, in row-major tap order; the padding is cropped."""
    n, c, h, wd = x_shape
    k, s, p = spec.kernel, spec.stride, spec.padding
    ho, wo = g.shape[2:]
    gxp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    for i, j in itertools.product(range(k), repeat=2):
        gxp[:, :, i : i + s * ho : s, j : j + s * wo : s] += (
            g.astype(np.float64) * w[:, 0, i, j].astype(np.float64).reshape(1, -1, 1, 1))
    return gxp[:, :, p : p + h, p : p + wd].astype(g.dtype)


def _depthwise_gx_loop(g, w, spec, x_shape):
    """Plain-loop scatter oracle of the depth-wise input cotangent, taps in row-major order."""
    n, c, h, wd = x_shape
    k, s, p = spec.kernel, spec.stride, spec.padding
    ho, wo = g.shape[2:]
    gxp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    for ni, ci, ki, kj, oi, oj in itertools.product(range(n), range(c), range(k), range(k), range(ho), range(wo)):
        gxp[ni, ci, oi * s + ki, oj * s + kj] += float(g[ni, ci, oi, oj]) * float(w[ci, 0, ki, kj])
    return gxp[:, :, p : p + h, p : p + wd].astype(g.dtype)


def _depthwise_operands(spec, shape, dt, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape).astype(dt)
    w = rng.normal(size=spec.weight_shape()).astype(dt)
    b = rng.normal(size=spec.in_channels).astype(dt)
    g = rng.normal(size=(shape[0], spec.out_channels, *spec.out_hw(*shape[2:]))).astype(dt)
    return x, w, b, g


@pytest.mark.parametrize("dt", [np.float32, np.float64])
@pytest.mark.parametrize("k, s, p", list(itertools.product((3, 5), (1, 2), (0, 1, 2))))
def test_depthwise_nchw_references_equal_the_loop_oracles(k, s, p, dt):
    spec = ConvSpec(4, 4, kernel=k, stride=s, padding=p, groups=4)
    x, w, b, g = _depthwise_operands(spec, (2, 4, 9, 8), dt, seed=17)
    f64 = [a.astype(np.float64) for a in (x, w, b)]
    want = _conv_reference(f64[0], f64[1], spec, f64[2]).astype(dt)
    assert _depthwise_taps_nchw(x, w, spec, b).tobytes() == want.tobytes()
    assert _depthwise_gx_taps_nchw(g, w, spec, x.shape).tobytes() == _depthwise_gx_loop(g, w, spec, x.shape).tobytes()


def _tall_depthwise_spec_and_shape(k, s, p, n):
    """A depth-wise spec and input whose output rows span 2.5 row tiles of the kernel.

    Checks, from ops._TILE, that the forward's output rows and the input
    cotangent's input rows both fall into at least 3 tiles, the last ragged.
    """
    c, wd = 8, 45
    spec = ConvSpec(c, c, kernel=k, stride=s, padding=p, groups=c)
    wo = (wd + 2 * p - k) // s + 1
    per = ops._TILE // (wo * c)
    ho = 2 * per + per // 2
    h = (ho - 1) * s + k - 2 * p
    assert spec.out_hw(h, wd) == (ho, wo) and ho % per
    per_gx = ops._TILE // ((wd + 2 * p) * c)
    assert h > 2 * per_gx and h % per_gx
    return spec, (n, c, h, wd)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("dt", [np.float32, np.float64])
@pytest.mark.parametrize("k, s, p", list(itertools.product((3, 5), (1, 2), (0, 1, 2))))
def test_depthwise_kernel_across_row_tiles_is_bit_identical(k, s, p, dt, n):
    spec, shape = _tall_depthwise_spec_and_shape(k, s, p, n)
    x, w, b, g = _depthwise_operands(spec, shape, dt, seed=k + 10 * s + 100 * p)
    y = ops.conv2d(x, w, spec, b)
    assert y.dtype == dt and y.tobytes() == _depthwise_taps_nchw(x, w, spec, b).tobytes()
    gx, _, _ = ops.conv2d_vjp(g, None, w, spec, need=(True, False, False), shape=shape, dtype=x.dtype)
    assert gx.dtype == dt and gx.tobytes() == _depthwise_gx_taps_nchw(g, w, spec, shape).tobytes()


@pytest.mark.parametrize("k, s, p", [(3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 0)])
def test_depthwise_kernel_across_tiles_of_whole_images_is_bit_identical(k, s, p):
    # 34 images of 8 channels, 16x16 out: a tile of the forward's output rows and one
    # of the input cotangent's input rows each hold several whole images, the last fewer
    c, n = 8, 34
    spec = ConvSpec(c, c, kernel=k, stride=s, padding=p, groups=c)
    side = 15 * s + k - 2 * p
    shape = (n, c, side, side)
    assert spec.out_hw(side, side) == (16, 16)
    for rows, row_elems in ((16, 16 * c), (side, (side + 2 * p) * c)):
        per_tile = ops._TILE // row_elems // rows
        assert 1 < per_tile and n > 2 * per_tile and n % per_tile
    x, w, b, g = _depthwise_operands(spec, shape, np.float64, seed=k + s)
    assert ops.conv2d(x, w, spec, b).tobytes() == _depthwise_taps_nchw(x, w, spec, b).tobytes()
    gx, _, _ = ops.conv2d_vjp(g, None, w, spec, need=(True, False, False), shape=shape, dtype=x.dtype)
    assert gx.tobytes() == _depthwise_gx_taps_nchw(g, w, spec, shape).tobytes()


# The depth-wise weight gradient walks each tap over the whole padded NCHW map. These
# digests pin its bits at maps that the forward and input-cotangent kernels cut into
# several row tiles, so a gw computed from those tiles has to reproduce them.
DEPTHWISE_GW_CASES = {
    "s1": (ConvSpec(24, 24, kernel=3, stride=1, padding=1, groups=24), (2, 24, 48, 48)),
    "s2": (ConvSpec(48, 48, kernel=5, stride=2, padding=2, groups=48), (1, 48, 57, 57)),
}
DEPTHWISE_GW_SHA256 = {
    ("s1", "float32"): "5f3eaeef0c54e90857da37d88afd18bf5d6f4a18560318d55f80cc219ee99b36",
    ("s1", "float64"): "12697d83a538a69fe2337162738c4b587c3ab47d466492638e9fb3a558b172bc",
    ("s2", "float32"): "e53a512377adc99c97539a0b43d3b5f3d0561f67842cc39db29024069f124ce3",
    ("s2", "float64"): "0d96e793b58231c7834f343e28797a0eed74c454268606ba404bdb861be2739f",
}


@pytest.mark.parametrize("case, dt", sorted(DEPTHWISE_GW_SHA256))
def test_depthwise_weight_gradient_bits_are_pinned(case, dt):
    spec, shape = DEPTHWISE_GW_CASES[case]
    n, c, h, wd = shape
    ho, wo = spec.out_hw(h, wd)
    for rows, row_elems in ((ho, wo * c), (h, (wd + 2 * spec.padding) * c)):
        assert len(ops._row_tiles(n, rows, row_elems)) > n  # several row tiles per image
    x, w, _, g = _depthwise_operands(spec, shape, np.dtype(dt), seed=24)
    _, gw, _ = ops.conv2d_vjp(g, x, None, spec, need=(False, True, False), shape=shape, dtype=x.dtype)
    assert gw.dtype == dt
    assert hashlib.sha256(gw.tobytes()).hexdigest() == DEPTHWISE_GW_SHA256[case, dt]


def test_depthwise_conv_peak_memory_stays_near_padded_input():
    # the kernel holds the output and a few tile-sized buffers; a full-size f64
    # tap temporary or output reads above 2.5
    spec = ConvSpec(64, 64, kernel=3, padding=1, groups=64)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 64, 56, 56)).astype(np.float32)
    w = rng.normal(size=spec.weight_shape()).astype(np.float32)
    b = np.zeros(64, dtype=np.float32)
    padded_f64_bytes = 64 * 58 * 58 * 8
    tracemalloc.start()
    try:
        ops.conv2d(x, w, spec, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * padded_f64_bytes, peak / padded_f64_bytes


def test_depthwise_input_vjp_peak_memory_stays_near_its_output():
    # gx is built tile by tile from a tile-sized slab of g: a padded f64 copy of gx
    # or a full-size g * w temporary reads above 1.8
    spec = ConvSpec(64, 64, kernel=3, padding=1, groups=64)
    shape = (2, 64, 40, 40)
    rng = np.random.default_rng(0)
    g = rng.normal(size=shape)
    w = rng.normal(size=spec.weight_shape())
    gx_bytes = g.nbytes
    tracemalloc.start()
    try:
        ops.conv2d_vjp(g, None, w, spec, need=(True, False, False), shape=shape, dtype=g.dtype)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * gx_bytes, peak / gx_bytes


@pytest.mark.parametrize("side", [112, 224])
def test_depthwise_conv_scratch_does_not_grow_with_the_map(side):
    # each row tile copies only the padded input rows it reads, so besides its output
    # the kernel holds tile-sized buffers and the tap weights: well under 2 MiB at
    # either size, where a padded f64 copy of the whole input is 6.6 MB at 112
    spec = ConvSpec(64, 64, kernel=3, stride=2, padding=1, groups=64)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 64, side, side)).astype(np.float32)
    w = rng.normal(size=spec.weight_shape()).astype(np.float32)
    b = rng.normal(size=64).astype(np.float32)
    out_bytes = 64 * (side // 2) ** 2 * 4
    scratch = _peak_bytes(lambda: ops.conv2d(x, w, spec, b)) - out_bytes
    assert scratch < 2 << 20, scratch


def test_pointwise_conv_peak_is_the_contraction_floor():
    # the f32 input's f64 upcast lives only through the matmul, and the bias is added
    # while the f64 product is cast into the f32 output, so the peak is the f64 output
    # plus the larger of the f64 input and the f32 output, plus the weights and the
    # cast's 8192-element buffers; holding all three maps at once reads 3 MB above
    spec = ConvSpec(32, 64, kernel=1)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 32, 112, 112)).astype(np.float32)
    w = rng.normal(size=spec.weight_shape()).astype(np.float32)
    b = rng.normal(size=64).astype(np.float32)
    pixels = 112 * 112
    in64, out64, out32 = 32 * pixels * 8, 64 * pixels * 8, 64 * pixels * 4
    peak = _peak_bytes(lambda: ops.conv2d(x, w, spec, b))
    assert peak <= out64 + max(in64, out32) + (128 << 10), peak


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("dt", [np.float32, np.float64])
@pytest.mark.parametrize("cin, cout, k, s, p", [(12, 20, 1, 1, 0), (3, 8, 3, 2, 1)], ids=["pointwise", "dense"])
def test_conv_epilogue_rounds_the_f64_sum_once(cin, cout, k, s, p, dt, bias):
    # the bias is added to the f64 contraction while it is cast: the bytes equal
    # (y + b).astype(x.dtype) of the f64 product y, which a bias-free f64 call returns
    spec = ConvSpec(cin, cout, kernel=k, stride=s, padding=p, bias=bias)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, cin, 13, 11)).astype(dt)
    w = rng.normal(size=spec.weight_shape()).astype(dt)
    b = rng.normal(size=cout).astype(dt) if bias else None
    y = ops.conv2d(x.astype(np.float64), w.astype(np.float64), dataclasses.replace(spec, bias=False))
    want = (y + b.astype(np.float64).reshape(1, -1, 1, 1) if bias else y).astype(dt)
    got = ops.conv2d(x, w, spec, b)
    assert got.dtype == dt and got.tobytes() == want.tobytes()


def test_conv_shape_errors():
    spec = ConvSpec(3, 4, kernel=3, padding=1)
    with pytest.raises(ValueError, match="channels"):
        ops.conv2d(np.zeros((1, 2, 4, 4)), np.zeros(spec.weight_shape()), spec, np.zeros(4))
    with pytest.raises(ValueError, match="shaped"):
        ops.conv2d(np.zeros((1, 3, 4, 4)), np.zeros((4, 3, 5, 5)), spec, np.zeros(4))
    with pytest.raises(ValueError, match="odd"):
        ConvSpec(3, 4, kernel=2)
    with pytest.raises(ValueError, match="groups"):
        ConvSpec(3, 4, kernel=3, groups=2)


def test_conv_linearity_in_inputs():
    spec = ConvSpec(3, 4, kernel=3, padding=1, bias=False)
    rng = np.random.default_rng(5)
    w = rng.normal(size=spec.weight_shape())
    x1 = rng.normal(size=(1, 3, 6, 6))
    x2 = rng.normal(size=(1, 3, 6, 6))
    lhs = ops.conv2d(x1 + 2.5 * x2, w, spec)
    rhs = ops.conv2d(x1, w, spec) + 2.5 * ops.conv2d(x2, w, spec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity_and_selector():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ops.matmul(np.eye(2), m), m)
    assert np.array_equal(ops.matmul(np.array([[1.0, 0.0]]), np.array([[5.0], [7.0]])), [[5.0]])


def test_matmul_against_triple_loop_oracle():
    # integer-valued entries make every partial sum exactly representable,
    # so the BLAS result must equal the sequential loop bit for bit
    rng = np.random.default_rng(3)
    a = rng.integers(-8, 9, size=(3, 4)).astype(np.float64)
    b = rng.integers(-8, 9, size=(4, 2)).astype(np.float64)
    got = ops.matmul(a, b)
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = 0.0
            for k in range(4):
                acc += a[i, k] * b[k, j]
            want[i, j] = acc
    assert np.array_equal(got, want)  # exact in 64-bit
    # continuous values agree to accumulation rounding
    a2, b2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    np.testing.assert_allclose(ops.matmul(a2, b2), a2 @ b2, rtol=0, atol=1e-13)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="inner dimensions"):
        ops.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


def test_matmul_mac_count():
    with cost_meter() as m:
        ops.matmul(np.zeros((3, 4)), np.zeros((4, 2)))
    assert m.macs == 3 * 4 * 2
    with cost_meter() as outer:
        ops.matmul(np.zeros((3, 4)), np.zeros((4, 2)))
        with cost_meter() as m:  # a nested meter counts in the outer one too
            ops.matmul(np.zeros((5, 2, 3, 4)), np.zeros((5, 2, 4, 6)))
    assert m.macs == 5 * 2 * 3 * 4 * 6
    assert outer.macs == 3 * 4 * 2 + m.macs


def test_matmul_linearity():
    rng = np.random.default_rng(11)
    a1, a2 = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    np.testing.assert_allclose(
        ops.matmul(a1 + 3.0 * a2, b),
        ops.matmul(a1, b) + 3.0 * ops.matmul(a2, b),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry_and_shift_invariance():
    np.testing.assert_allclose(ops.softmax_lastdim(np.array([0.0, 0.0])), [0.5, 0.5])
    big = ops.softmax_lastdim(np.array([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(big))
    np.testing.assert_allclose(big, [1 / 3] * 3)


def test_softmax_closed_form():
    y = ops.softmax_lastdim(np.array([0.0, math.log(3.0)]))
    np.testing.assert_allclose(y, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).normal(size=(4, 5, 7)) * 10
    s = ops.softmax_lastdim(x).sum(axis=-1)
    np.testing.assert_allclose(s, 1.0, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_in_place_is_bit_identical_to_the_three_array_formula(dtype):
    x = (np.random.default_rng(17).normal(size=(6, 4, 49, 49)) * 30).astype(dtype)
    x[0, :, :, 40:] = MASK_NEG  # masked keys
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    _assert_same_bits(ops.softmax_lastdim(x), e / e.sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# normalization


def test_batchnorm_default_stats_is_near_identity():
    x = np.random.default_rng(1).normal(size=(1, 3, 4, 4))
    ones, zeros = np.ones(3), np.zeros(3)
    y = ops.batchnorm_inference(x, ones, zeros, zeros, ones)
    np.testing.assert_allclose(y, x / math.sqrt(1 + 1e-5), atol=1e-12)


def test_batchnorm_rejects_nonpositive_variance():
    for dtype, bad in itertools.product((np.float32, np.float64), (0.0, -1.0, np.nan)):  # NaN > 0 is False too
        x, ones, zeros = np.zeros((1, 2, 2, 2), dtype=dtype), np.ones(2, dtype=dtype), np.zeros(2, dtype=dtype)
        with pytest.raises(ValueError, match="variance"):
            ops.batchnorm_inference(x, ones, zeros, zeros, np.array([1.0, bad], dtype=dtype))


@pytest.mark.parametrize("x_dt, stat_dt", [(np.float32, np.float32), (np.float32, np.float64),
                                            (np.float64, np.float32), (np.float64, np.float64)])
def test_batchnorm_shift_in_place_is_bit_identical_to_the_out_of_place_formula(x_dt, stat_dt):
    # with mixed dtypes the in-place add computes in the wider one and rounds once
    rng = np.random.default_rng(12)
    x = (rng.normal(size=(2, 6, 5, 7)) * 3).astype(x_dt)
    gamma, beta, mean = (rng.normal(size=6).astype(stat_dt) for _ in range(3))
    var = rng.uniform(0.5, 1.5, size=6).astype(stat_dt)
    scale = (gamma / np.sqrt(var + ops.NORM_EPS)).reshape(1, -1, 1, 1)
    shift = (beta - mean * scale.reshape(-1)).reshape(1, -1, 1, 1)
    got = ops.batchnorm_inference(x, gamma, beta, mean, var)
    assert got.dtype == x_dt and got.tobytes() == (x * scale + shift).astype(x.dtype).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_peak_is_one_output_map(dtype):
    x = np.random.default_rng(13).normal(size=(1, 64, 112, 112)).astype(dtype)
    stats = [np.full(64, v, dtype) for v in (1.5, 0.25, 0.1, 2.0)]
    peak = _peak_bytes(lambda: ops.batchnorm_inference(x, *stats))
    assert peak <= x.nbytes + (64 << 10), peak / x.nbytes


def _channels_last(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("g_layout", ["nchw", "channels-last"])
@pytest.mark.parametrize("x_layout", ["nchw", "channels-last"])
@pytest.mark.parametrize("x_dt, stat_dt", [(np.float32, np.float32), (np.float32, np.float64),
                                            (np.float64, np.float32), (np.float64, np.float64)])
def test_batchnorm_vjp_in_place_is_bit_identical_to_the_out_of_place_formulas(x_dt, stat_dt, x_layout, g_layout):
    # the sum that makes ggamma runs in the product's memory order, so both layouts
    # of x and of g are covered; the map is large enough for that order to show
    rng = np.random.default_rng(19)
    x = (rng.normal(size=(2, 8, 24, 24)) * 3).astype(x_dt)
    g = rng.normal(size=x.shape).astype(x_dt)
    x, g = (_channels_last(a) if layout == "channels-last" else a for a, layout in ((x, x_layout), (g, g_layout)))
    gamma, mean = (rng.normal(size=8).astype(stat_dt) for _ in range(2))
    var = rng.uniform(0.5, 1.5, size=8).astype(stat_dt)
    inv = 1.0 / np.sqrt(var + ops.NORM_EPS)
    xhat = (x - mean.reshape(1, -1, 1, 1)) * inv.reshape(1, -1, 1, 1)
    want = ((g * (gamma * inv).reshape(1, -1, 1, 1)).astype(x_dt, copy=False),
            (g * xhat).sum(axis=(0, 2, 3)).astype(x_dt, copy=False),
            g.sum(axis=(0, 2, 3)).astype(x_dt, copy=False))
    got = ops.batchnorm_inference_vjp(g, x, gamma, mean, var, need=(True, True, True), dtype=x_dt)
    for name, a, b in zip(("gx", "ggamma", "gbeta"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_batchnorm_vjp_holds_one_scratch_map():
    # ggamma's xhat is built and multiplied by g in one buffer, dropped before gx is
    # allocated: gx, xhat and g * xhat alive together read 3.07 maps
    rng = np.random.default_rng(20)
    x, g = rng.normal(size=(2, 2, 64, 32, 32))
    gamma, mean = rng.normal(size=(2, 64))
    var = rng.uniform(0.5, 1.5, size=64)
    peak = _peak_bytes(lambda: ops.batchnorm_inference_vjp(g, x, gamma, mean, var, need=(True, True, True),
                                                           dtype=x.dtype))
    assert peak < 1.5 * x.nbytes, peak / x.nbytes


def test_layernorm_constant_channels_give_zero():
    x = np.full((1, 4, 3, 3), 2.7)
    y = ops.layernorm_channels(x, np.ones(4), np.zeros(4))
    np.testing.assert_allclose(y, 0.0, atol=1e-6)


def test_layernorm_two_channel_closed_form():
    # channels [1, 3]: mean 2, population variance 1 -> [-1, 1]
    x = np.zeros((1, 2, 1, 1))
    x[0, 0], x[0, 1] = 1.0, 3.0
    y = ops.layernorm_channels(x, np.ones(2), np.zeros(2))
    np.testing.assert_allclose(y[0, :, 0, 0], [-1.0, 1.0], atol=1e-5)


def test_layernorm_moments_per_position():
    x = np.random.default_rng(2).normal(size=(2, 8, 3, 3)) * 3 + 1
    y = ops.layernorm_channels(x, np.ones(8), np.zeros(8))
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-3)


# ---------------------------------------------------------------------------
# activations


def test_activation_fixed_points_and_asymptote():
    assert ops.silu(np.array([0.0]))[0] == 0.0
    assert ops.gelu(np.array([0.0]))[0] == 0.0
    assert abs(ops.silu(np.array([20.0]))[0] - 20.0) < 1e-6


def test_gelu_matches_independent_erf():
    # Phi(1) from math.erf, an implementation independent of scipy
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    got = ops.gelu(np.array([1.0]))[0]
    assert abs(got - phi1) < 1e-12
    assert abs(got - 0.8413447) < 1e-7


def test_erf_is_scipys_kernel_bit_for_bit():
    sub = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, sub, -sub, 1e3 * sub, -1e3 * sub,
                      1.0, -1.0, 6.0, -6.0])
    rng = np.random.default_rng(34)
    signs = rng.choice([-1.0, 1.0], size=500_000)
    sweep = np.concatenate([rng.uniform(-1.0, 1.0, size=500_000), signs * rng.uniform(1.0, 7.0, size=500_000)])
    for x in (edges, sweep):
        assert ops.erf(x).tobytes() == erf(x).tobytes()


def test_erf_falls_back_to_scipy_special_without_the_extension_file(monkeypatch):
    import scipy.special

    monkeypatch.setattr("importlib.machinery.EXTENSION_SUFFIXES", [".no-such-extension"])
    assert ops._load_erf_module() is scipy.special


def _two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _specials(dtype):
    sub = np.finfo(dtype).smallest_subnormal
    return np.array([0.0, -0.0, 1e-8, -1e-8, 20.0, -20.0, 88.7, -88.7, 745.0, -745.0,
                     np.inf, -np.inf, sub, -sub, 1e3 * sub, -1e3 * sub, np.nan, -np.nan]).astype(dtype)


def _special_values(dtype):
    noise = np.random.default_rng(12).normal(size=4096) * 12  # mixed signs
    return np.concatenate([_specials(dtype), noise.astype(dtype)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_identical_to_two_branch_formula(dtype):
    x = _special_values(dtype)
    with np.errstate(invalid="ignore"):
        got, want = ops._sigmoid(x), _two_branch_sigmoid(x)
    assert got.dtype == dtype
    # NaN maps to NaN; a NaN's sign bit carries no value, so only the rest is compared bitwise
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.isnan(want), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# ---------------------------------------------------------------------------
# VJPs


def _silu_vjp_formula(g, x):
    s = ops._sigmoid(x)
    return g * (s * (1.0 + x * (1.0 - s)))


def _gelu_vjp_formula(g, x):
    phi = 0.5 * (1.0 + erf(x * ops._INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * ops._INV_SQRT2PI
    return (g * (phi + x * pdf)).astype(x.dtype, copy=False)


VJP_FORMULAS = {"silu": _silu_vjp_formula, "gelu": _gelu_vjp_formula}


def _dydx_buffer(name, x):
    return np.empty(x.shape, x.dtype if name == "silu" else np.float64)


def _vjp_via_dydx(name, g, x):
    """name's VJP as the tape runs it: the forward writes dydx from x, the VJP multiplies g by it."""
    dydx = _dydx_buffer(name, x)
    getattr(ops, name)(x, dydx)
    return ops.silu_vjp(g, dydx) if name == "silu" else ops.gelu_vjp(g, dydx, x.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["silu", "gelu"])
def test_activation_vjp_bit_identical_to_its_formula(name, dtype):
    x = _special_values(dtype)
    g = np.random.default_rng(13).normal(size=x.shape).astype(dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _vjp_via_dydx(name, g, x), VJP_FORMULAS[name](g, x)
    assert got.dtype == want.dtype == dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _silu_formula(x):
    return x * ops._sigmoid(x)


def _gelu_formula(x):
    return (x * 0.5 * (1.0 + erf(x * ops._INV_SQRT2))).astype(x.dtype, copy=False)


ACTIVATIONS = {"silu": (ops.silu, _silu_formula), "gelu": (ops.gelu, _gelu_formula),
               **{name + "_vjp": (functools.partial(_vjp_via_dydx, name), VJP_FORMULAS[name]) for name in VJP_FORMULAS}}


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_activation_across_tile_edges_is_bit_identical_to_its_whole_array_formula(name, dtype):
    f, formula = ACTIVATIONS[name]
    special = _specials(dtype)
    x = np.random.default_rng(15).normal(size=int(3.5 * ops._TILE)).astype(dtype) * 12
    for edge in range(ops._TILE, x.size, ops._TILE):  # both sides of every tile edge
        x[edge - special.size : edge + special.size] = np.concatenate([special, special[::-1]])
    x = x.reshape(2, -1, 7, 8)
    args = (x,) if name in ("silu", "gelu") else (np.random.default_rng(16).normal(size=x.shape).astype(dtype), x)
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_same_bits(f(*args), formula(*args))
        if len(args) == 2:
            # the forward's whole-array fallback: a non-contiguous x
            xt = x.transpose(0, 2, 3, 1)
            _assert_same_bits(f(args[0].transpose(0, 2, 3, 1), xt), formula(args[0].transpose(0, 2, 3, 1), xt))
            # a cotangent of the other precision
            g_other = args[0].astype(np.float64 if dtype == np.float32 else np.float32)
            _assert_same_bits(f(g_other, x), formula(g_other, x))
        else:
            xt = x.transpose(0, 2, 3, 1)
            _assert_same_bits(f(xt), formula(xt))


def _peak_bytes(call):
    """Peak traced bytes that call() allocates on top of what is live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# A VJP is one multiply into its result, of x's dtype: it allocates that result and no
# temporary, besides the ufunc's cast buffers (0.07 x.nbytes for f32 gelu, whose
# multiply runs in f64). dydx is written by the forward, as the tape does, outside
# the measurement.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["silu", "gelu"])
def test_activation_vjp_peak_memory(name, dtype):
    x = np.random.default_rng(14).normal(size=(1, 160, 56, 56)).astype(dtype)
    g = np.ones_like(x)
    dydx = _dydx_buffer(name, x)
    getattr(ops, name)(x, dydx)
    vjp = (lambda: ops.silu_vjp(g, dydx)) if name == "silu" else (lambda: ops.gelu_vjp(g, dydx, dtype))
    peak = _peak_bytes(vjp)
    assert peak < 1.1 * x.nbytes, peak / x.nbytes


# A map of more than 2 * _TILE elements is tiled: the forward holds its output plus
# a tile's temporaries, at most 1.23 x.nbytes (f32 gelu, whose tile work is f64).
# dydx is allocated by the caller, as the tape does, outside the measurement.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["silu", "gelu"])
def test_tiled_activation_peak_memory(name, dtype):
    f = getattr(ops, name)
    x = np.random.default_rng(14).normal(size=(1, 160, 56, 56)).astype(dtype)
    dydx = _dydx_buffer(name, x)
    for kernel, call in {"forward": lambda: f(x), "forward and dydx": lambda: f(x, dydx)}.items():
        peak = _peak_bytes(call)
        assert peak < 1.5 * x.nbytes, (kernel, peak / x.nbytes)


@pytest.mark.parametrize("name", ["silu", "gelu"])
def test_activation_rejects_a_dydx_of_another_dtype_or_shape(name):
    x = np.zeros((2, 3))
    for dydx in (np.empty(x.shape, np.float32), np.empty((4, 2, 3))):
        with pytest.raises(ValueError, match="dydx"):
            getattr(ops, name)(x, dydx)


# forwards, in units of x.nbytes: the whole-array formulas peaked at 5.0 (gelu f32),
# 3.0 (gelu f64) and 3.1 (softmax); the in-place forwards keep one output array
# plus a tile's f64 temporary or the row max and sum. The gelu map is big enough
# to be tiled.
FORWARD_PEAK_SHAPES = {"gelu": (1, 160, 56, 56), "softmax_lastdim": (16, 4, 49, 49)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(FORWARD_PEAK_SHAPES))
def test_forward_peak_memory(name, dtype):
    f = getattr(ops, name)
    x = np.random.default_rng(18).normal(size=FORWARD_PEAK_SHAPES[name]).astype(dtype)
    peak = _peak_bytes(lambda: f(x))
    assert peak < 1.5 * x.nbytes, peak / x.nbytes


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's mallopt")
def test_steady_state_forward_faults_no_fresh_pages():
    import resource

    cfg = MMBConfig(64, 4.0, operator="ewmhsa_dwconv", window=7, heads=4, pre_norm="layernorm",
                    expand_act="gelu", operator_norm="batchnorm", operator_act="silu")
    params = mmb_init_params(cfg, Rng(0), precision="f64")
    x = np.random.default_rng(19).normal(size=(1, 64, 28, 28))
    for _ in range(2):  # warm-up: the heap grows to the forward's working set
        mmb_forward(x, cfg, params)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        mmb_forward(x, cfg, params)
    per_forward = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3
    # freed heap given back to the kernel costs about 3.5k faults per forward
    assert per_forward < 100, per_forward


def test_conv_vjp_identity_kernel_passes_upstream_through():
    c = 3
    spec = ConvSpec(c, c, kernel=3, padding=1, groups=c, bias=False)
    x = np.random.default_rng(0).normal(size=(1, c, 5, 5))
    g = np.random.default_rng(1).normal(size=(1, c, 5, 5))
    gx, _, _ = ops.conv2d_vjp(g, None, identity_dw_kernel(c), spec, need=(True, False, False),
                              shape=x.shape, dtype=x.dtype)
    np.testing.assert_allclose(gx, g, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("groups", [1, 2])
def test_pointwise_conv_input_vjp_is_the_zero_buffer_sum_bit_for_bit(groups, dtype):
    # an unpadded, unstrided 1x1 conv's one tap covers its whole input; its input
    # cotangent is 0.0 + (w^T g), the tap added into zeros, so where every
    # product is -0.0 (zero cotangent, negative weight) the result is +0.0
    rng = np.random.default_rng(41)
    spec = ConvSpec(4, 6, kernel=1, groups=groups)
    w = -np.abs(rng.normal(size=spec.weight_shape())).astype(dtype)
    g = rng.normal(size=(2, 6, 3, 5)).astype(dtype)
    g[:, :, 1] = 0.0
    g[1] = 0.0
    gx, _, _ = ops.conv2d_vjp(g, None, w, spec, need=(True, False, False), shape=(2, 4, 3, 5), dtype=dtype)
    wt = w.astype(np.float64)[:, :, 0, 0].reshape(groups, 6 // groups, 4 // groups).transpose(0, 2, 1)
    want = np.zeros((2, 4, 3, 5))
    want += np.matmul(wt, g.astype(np.float64).reshape(2, groups, 6 // groups, 15)).reshape(2, 4, 3, 5)
    want = want.astype(dtype)
    assert gx.dtype == dtype and gx.tobytes() == want.tobytes()
    assert not np.signbit(gx[1]).any()


@pytest.mark.parametrize("spec", [
    ConvSpec(4, 4, kernel=3, stride=1, padding=1, groups=4),
    ConvSpec(4, 4, kernel=5, stride=2, padding=2, groups=4, bias=False),
    ConvSpec(4, 6, kernel=1),
    ConvSpec(4, 6, kernel=1, groups=2),
    ConvSpec(3, 4, kernel=3, stride=2, padding=1),
])
def test_conv_vjp_is_the_adjoint_of_the_loop_oracle(spec):
    # conv is linear in x and in w: <gx, v> = <g, conv(v, w)>, <gw, u> = <g, conv(x, u)>
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, spec.in_channels, 7, 6))
    w = rng.normal(size=spec.weight_shape())
    ho, wo = spec.out_hw(7, 6)
    g = rng.normal(size=(2, spec.out_channels, ho, wo))
    gx, gw, gb = ops.conv2d_vjp(g, x, w, spec, need=(True, True, True), shape=x.shape, dtype=x.dtype)
    for _ in range(3):
        v, u = rng.normal(size=x.shape), rng.normal(size=w.shape)
        want_x = float((g * _conv_reference(v, w, spec)).sum())
        want_w = float((g * _conv_reference(x, u, spec)).sum())
        assert abs(float((gx * v).sum()) - want_x) <= 1e-11 * max(1.0, abs(want_x))
        assert abs(float((gw * u).sum()) - want_w) <= 1e-11 * max(1.0, abs(want_w))
    if spec.bias:
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)
    else:
        assert gb is None


def _need_cases():
    """name -> (vjp(need) on fixed seeded operands, number of differentiable inputs).

    Each call passes only the operands that its flagged gradients read, None
    for the rest, as the tape does.
    """
    rng = np.random.default_rng(33)
    cases = {}
    for spec in (
        ConvSpec(4, 4, kernel=3, padding=1, groups=4),
        ConvSpec(4, 4, kernel=5, stride=2, padding=2, groups=4, bias=False),
        ConvSpec(4, 6, kernel=1),
        ConvSpec(4, 6, kernel=1, groups=2),
        ConvSpec(3, 4, kernel=3, stride=2, padding=1),
    ):
        for dt in (np.float32, np.float64):
            x = rng.normal(size=(2, spec.in_channels, 7, 6)).astype(dt)
            w = rng.normal(size=spec.weight_shape()).astype(dt)
            g = rng.normal(size=(2, spec.out_channels, *spec.out_hw(7, 6))).astype(dt)
            cases[f"conv2d-k{spec.kernel}s{spec.stride}g{spec.groups}-{dt.__name__}"] = (
                lambda need, g=g, x=x, w=w, spec=spec: ops.conv2d_vjp(
                    g, x if need[1] else None, w if need[0] else None, spec, need=need,
                    shape=x.shape, dtype=x.dtype), 3)
    a, b = rng.normal(size=(2, 1, 3, 4)), rng.normal(size=(3, 4, 5))
    g = rng.normal(size=(2, 3, 3, 5))
    cases["matmul-broadcast"] = (lambda need: ops.matmul_vjp(
        g, a if need[1] else None, b if need[0] else None, need=need,
        shapes=(a.shape, b.shape), dtypes=(a.dtype, b.dtype)), 2)
    x4 = rng.normal(size=(2, 5, 4, 4)).astype(np.float32)
    g4 = rng.normal(size=x4.shape).astype(np.float32)
    gam, _, mean = rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)
    var = 0.5 + rng.uniform(size=5)
    cases["batchnorm_inference"] = (
        lambda need: ops.batchnorm_inference_vjp(g4, x4 if need[1] else None, gam, mean, var, need=need,
                                                 dtype=x4.dtype), 3)
    cases["layernorm_channels"] = (lambda need: ops.layernorm_channels_vjp(g4, x4, gam, need=need), 3)
    return cases


NEED_CASES = _need_cases()


@pytest.mark.parametrize("name", sorted(NEED_CASES))
def test_need_masked_vjp_matches_full_call_bit_for_bit(name):
    vjp, arity = NEED_CASES[name]
    full = vjp((True,) * arity)
    for need in itertools.product((True, False), repeat=arity):
        got = vjp(need)
        assert len(got) == arity
        for flag, part, ref in zip(need, got, full):
            if not flag or ref is None:  # ref is None only for a bias-free conv's gb
                assert part is None
            else:
                assert part.dtype == ref.dtype and part.shape == ref.shape
                assert part.tobytes() == ref.tobytes()


def test_matmul_vjp_bilinear_forms_exact():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    g = rng.normal(size=(3, 2))
    ga, gb = ops.matmul_vjp(g, a, b, need=(True, True), shapes=(a.shape, b.shape), dtypes=(a.dtype, b.dtype))
    np.testing.assert_allclose(ga, g @ b.T, atol=1e-12)
    np.testing.assert_allclose(gb, a.T @ g, atol=1e-12)


def test_softmax_vjp_vs_central_differences():
    x = np.array([0.0, math.log(3.0)])
    g = np.array([0.7, -0.3])
    y = ops.softmax_lastdim(x)
    analytic = ops.softmax_lastdim_vjp(g, y)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = ((ops.softmax_lastdim(x + e) - ops.softmax_lastdim(x - e)) / (2 * h) * g[..., None].T).sum()
        assert abs(analytic[i] - fd) / max(abs(fd), 1e-12) < 1e-6


def test_every_primitive_vjp_against_finite_differences():
    from emo.analysis import check_primitives

    report = check_primitives(seed=0)
    assert set(report) >= {
        "conv2d", "conv2d_grouped", "conv2d_strided", "conv2d_depthwise",
        "matmul", "matmul_batched", "softmax_lastdim",
        "batchnorm_inference", "layernorm_channels", "silu", "gelu",
    }
    for name, err in report.items():
        assert err < 1e-4, f"{name}: {err}"


# ---------------------------------------------------------------------------
# determinism


def test_forward_determinism_bit_identical():
    spec = ConvSpec(3, 4, kernel=3, padding=1)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
    w = rng.normal(size=spec.weight_shape()).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    y1 = ops.conv2d(x, w, spec, b)
    y2 = ops.conv2d(x, w, spec, b)
    assert y1.tobytes() == y2.tobytes()


def test_f32_conv_uses_f64_accumulation():
    # catastrophic-cancellation probe: f32 accumulation loses this, f64 keeps it
    spec = ConvSpec(3, 1, kernel=1, bias=False)
    x = np.array([1e8, 1.0, -1e8], dtype=np.float32).reshape(1, 3, 1, 1)
    w = np.ones((1, 3, 1, 1), dtype=np.float32)
    y = ops.conv2d(x, w, spec)
    assert y.dtype == np.float32
    assert y[0, 0, 0, 0] == 1.0

    # depth-wise 3x3: the cancelling terms sit under three different taps
    dw = ConvSpec(2, 2, kernel=3, groups=2, bias=False)
    x = np.zeros((1, 2, 3, 3), dtype=np.float32)
    x[0, :, 0, :] = [1e8, 1.0, -1e8]
    y = ops.conv2d(x, np.ones(dw.weight_shape(), dtype=np.float32), dw)
    assert y.dtype == np.float32
    assert y[0, 0, 0, 0] == 1.0 and y[0, 1, 0, 0] == 1.0

    # dense 3x3: the terms sit under different taps and different channels
    spec = ConvSpec(2, 1, kernel=3, bias=False)
    x = np.zeros((1, 2, 3, 3), dtype=np.float32)
    x[0, 0, 0, 0], x[0, 1, 1, 1], x[0, 0, 2, 2] = 1e8, 1.0, -1e8
    y = ops.conv2d(x, np.ones(spec.weight_shape(), dtype=np.float32), spec)
    assert y.dtype == np.float32
    assert y[0, 0, 0, 0] == 1.0
