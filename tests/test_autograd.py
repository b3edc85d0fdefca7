import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from emo import EMOVariantConfig, build_emo, emo_forward, ops
from emo import autograd as T
from emo.attention import window_merge, window_partition
from emo.ops import ConvSpec


def test_plain_arrays_bypass_the_tape():
    x = np.ones((2, 2))
    y = T.add(x, x)
    assert isinstance(y, np.ndarray)


def test_backward_through_shared_subexpression():
    # y = (x + x) @ w uses x twice; gradient must accumulate both paths
    x = T.Var(np.array([[1.0, 2.0]]))
    w = T.Var(np.array([[3.0], [4.0]]))
    y = T.matmul(T.add(x, x), w)
    grads = T.backward(y, np.ones((1, 1)))
    np.testing.assert_allclose(T.grad_of(grads, x), 2 * np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(T.grad_of(grads, w), 2 * np.array([[1.0], [2.0]]))


def test_residual_fanout_gradient():
    x = T.Var(np.random.default_rng(0).normal(size=(1, 3, 4, 4)))
    y = T.add(x, T.silu(x))
    g = np.random.default_rng(1).normal(size=(1, 3, 4, 4))
    grads = T.backward(y, g)
    from emo.ops import silu_vjp

    np.testing.assert_allclose(T.grad_of(grads, x), g + silu_vjp(g, x.value), atol=1e-12)


def test_reshape_transpose_roundtrip_grads():
    x = T.Var(np.random.default_rng(2).normal(size=(1, 2, 3, 3)))
    y = T.transpose(x, (0, 2, 3, 1))
    y = T.reshape(y, (1, 3 * 3 * 2))
    grads = T.backward(y, np.ones((1, 18)))
    np.testing.assert_allclose(T.grad_of(grads, x), np.ones((1, 2, 3, 3)))


def test_window_partition_and_merge_are_adjoint_single_nodes():
    # batch 2, 5x7 map, window 3: padded by one row and two columns
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(2, 4, 5, 7))
    tokens, layout = window_partition(x0, 3)
    assert (layout.pad_h, layout.pad_w) == (1, 2)
    t0 = rng.normal(size=tokens.shape)

    x = T.Var(x0)
    part, _ = window_partition(x, 3)
    assert part.node.parents == (x.node,) and part.node.vjp is not None
    gx = T.grad_of(T.backward(part, t0), x)
    assert gx.tobytes() == window_merge(t0, layout, 2).tobytes()

    t = T.Var(t0)
    merged = window_merge(t, layout, 2)
    assert merged.node.parents == (t.node,) and merged.node.vjp is not None
    cot = rng.normal(size=x0.shape)
    gt = T.grad_of(T.backward(merged, cot), t)
    assert gt.tobytes() == window_partition(cot, 3)[0].tobytes()

    # <partition(x), t> == <x, merge(t)>: the maps are each other's transpose
    assert abs(float((tokens * t0).sum()) - float((x0 * window_merge(t0, layout, 2)).sum())) < 1e-12


def test_mean_hw_gradient_spreads_uniformly():
    x = T.Var(np.arange(16.0).reshape(1, 1, 4, 4))
    y = T.mean_hw(x)
    grads = T.backward(y, np.array([[2.0]]))
    np.testing.assert_allclose(T.grad_of(grads, x), np.full((1, 1, 4, 4), 2.0 / 16))


def test_conv_node_routes_grads_to_all_parents():
    spec = ConvSpec(2, 3, kernel=3, padding=1)
    rng = np.random.default_rng(3)
    x = T.Var(rng.normal(size=(1, 2, 4, 4)))
    w = T.Var(rng.normal(size=spec.weight_shape()))
    b = T.Var(rng.normal(size=3))
    y = T.conv2d(x, w, spec, b)
    grads = T.backward(y, np.ones(y.value.shape))
    assert T.grad_of(grads, x).shape == x.value.shape
    assert T.grad_of(grads, w).shape == w.value.shape
    np.testing.assert_allclose(T.grad_of(grads, b), np.full(3, 16.0))


def test_backward_shape_mismatch_rejected():
    x = T.Var(np.zeros((2, 2)))
    y = T.silu(x)
    try:
        T.backward(y, np.zeros((3, 3)))
    except ValueError as exc:
        assert "cotangent" in str(exc)
    else:
        raise AssertionError("expected shape error")


def test_backward_returns_leaf_cotangents_only_and_repeats():
    spec = ConvSpec(2, 3, kernel=3, padding=1)
    rng = np.random.default_rng(4)
    x = T.Var(rng.normal(size=(1, 2, 4, 4)))
    w = T.Var(rng.normal(size=spec.weight_shape()))
    b = rng.normal(size=3)  # a plain array: no gradient, no entry
    h = T.silu(T.conv2d(x, w, spec, b))
    y = T.mean_hw(T.add(h, T.scale(h, 0.5)))
    cot = rng.normal(size=(1, 3))
    first = T.backward(y, cot)
    assert set(first) == {id(x), id(w)}
    second = T.backward(y, cot)
    assert set(second) == set(first)
    for key, g in first.items():
        assert g.tobytes() == second[key].tobytes()


def test_leaf_cotangents_are_the_callers_to_write():
    # add hands one cotangent to both parents, reshape a view of it, and mean_hw a
    # read-only zero-stride view; the leaves get their own writable arrays
    a, b = T.Var(np.zeros((2, 3))), T.Var(np.ones((2, 3)))
    seed = np.arange(6.0).reshape(2, 3)
    grads = T.backward(T.add(a, b), seed)
    ga, gb = T.grad_of(grads, a), T.grad_of(grads, b)
    x = T.Var(np.ones((1, 2, 3)))
    gx = T.grad_of(T.backward(T.reshape(x, (2, 3)), seed), x)
    y = T.Var(np.ones((1, 2, 3, 3)))
    gy = T.grad_of(T.backward(T.mean_hw(y), np.ones((1, 2))), y)
    for g in (ga, gb, gx, gy):
        assert g.flags.writeable
        assert not np.shares_memory(g, seed)
    assert not np.shares_memory(ga, gb)
    for g in (ga, gb, gx):
        np.testing.assert_array_equal(g.reshape(2, 3), seed)
    np.testing.assert_array_equal(gy, np.full((1, 2, 3, 3), 1.0 / 9))


def _all_var_params(model):
    """Every weight a Var (buffers stay arrays): each VJP then computes every cotangent."""
    return {k: v if k.endswith((".mean", ".var")) else T.Var(v) for k, v in model.params.items()}


def test_input_only_tape_gives_the_all_var_input_gradient_bit_for_bit():
    model = build_emo("emo-1m", seed=2, precision="f64")
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(1, 3, 64, 64))
    cot = rng.normal(size=(1, model.cfg.num_classes))

    x = T.Var(x0)
    input_only = T.grad_of(T.backward(emo_forward(model, x), cot), x)

    params = _all_var_params(model)
    x = T.Var(x0)
    all_var = T.backward(emo_forward(dataclasses.replace(model, params=params), x), cot)
    assert len(all_var) == 1 + sum(isinstance(v, T.Var) for v in params.values())
    assert input_only.tobytes() == T.grad_of(all_var, x).tobytes()


def _tiny_input_gradient_bytes(all_var: bool) -> tuple[int, int]:
    """(tape after the forward, extra peak of the backward) in traced bytes.

    One input gradient of the tiny variant at 64 px, f64, batch 2; with
    `all_var` every weight is a Var too.
    """
    cfg = EMOVariantConfig("tiny", (1, 1, 2, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0))
    model = build_emo(cfg, seed=0, precision="f64")
    if all_var:
        model = dataclasses.replace(model, params=_all_var_params(model))
    rng = np.random.default_rng(7)
    x = T.Var(rng.normal(size=(2, 3, 64, 64)))
    cot = rng.normal(size=(2, cfg.num_classes))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits = emo_forward(model, x)
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        T.backward(logits, cot)
        extra = tracemalloc.get_traced_memory()[1] - base - tape
    finally:
        tracemalloc.stop()
    return tape, extra


def test_input_only_tape_keeps_only_what_its_vjps_read():
    # with weights as plain arrays no VJP reads a conv or batchnorm input, so the
    # tape holds well under what the all-Var forward must keep (a tape keeping
    # every forward value measured the same for both)
    tape, _ = _tiny_input_gradient_bytes(all_var=False)
    all_var_tape, _ = _tiny_input_gradient_bytes(all_var=True)
    assert tape < 0.6 * all_var_tape, tape / all_var_tape


def _keep_input_activations(monkeypatch):
    """Swap in silu and gelu wrappers whose nodes keep x and re-evaluate the derivative from it."""
    def keep_input(f, vjp):
        def wrapper(x):
            xv = T.val(x)
            return T._record(f(xv), (x,), lambda need: lambda g: (vjp(g, xv),))
        return wrapper

    monkeypatch.setattr(T, "silu", keep_input(ops.silu, ops.silu_vjp))
    monkeypatch.setattr(T, "gelu", keep_input(ops.gelu, ops.gelu_vjp))


def test_derivative_keeping_tape_is_no_larger_than_an_input_keeping_one(monkeypatch):
    # an f64 node keeps dy/dx of x's size in place of x, which is then freed: the
    # tape must not grow, and the backward no longer evaluates sigmoid or erf
    _tiny_input_gradient_bytes(all_var=False)  # the first call makes one-time allocations
    tape, extra = _tiny_input_gradient_bytes(all_var=False)
    _keep_input_activations(monkeypatch)
    keep_input_tape, keep_input_extra = _tiny_input_gradient_bytes(all_var=False)
    assert tape <= keep_input_tape, (tape, keep_input_tape)
    assert extra < keep_input_extra, (extra, keep_input_extra)


@pytest.mark.parametrize("name", ["silu", "gelu"])
def test_activation_input_is_freed_after_an_input_only_forward(name):
    # with w a plain array the conv node keeps nothing of its output, so the
    # activation's node is the only one that could hold its input
    rng = np.random.default_rng(23)
    x = T.Var(rng.normal(size=(2, 4, 8, 8)))
    h = T.conv2d(x, rng.normal(size=(4, 1, 3, 3)), ConvSpec(4, 4, padding=1, groups=4, bias=False))
    h_value = h.value.copy()
    alive = weakref.ref(h.value)
    y = getattr(T, name)(h)
    del h
    assert alive() is None
    g = rng.normal(size=y.shape)
    (gh,) = y.node.vjp(g)
    assert gh.tobytes() == getattr(ops, name + "_vjp")(g, h_value).tobytes()


def _activation_inputs(dtype, size):
    """`size` values of dtype: noise, and at the start and around every tile edge,
    +-0, +-inf, NaN, subnormals, x around +-sqrt(2) (where erf(x / sqrt(2))
    switches branch) and |x| >= 8 sqrt(2) (erf's far branch)."""
    sub = np.finfo(dtype).smallest_subnormal
    near = np.concatenate([np.sqrt(2.0) * (1 + np.linspace(-4e-7, 4e-7, 9)),
                           8 * np.sqrt(2.0) * (1 + np.linspace(0, 4e-7, 5)), [12.0, 40.0, 1e3, 1e30]])
    edge = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, sub, -sub, 1e3 * sub, -1e3 * sub],
                           near, -near]).astype(dtype)
    x = (np.random.default_rng(20).normal(size=size) * 4).astype(dtype)
    x[: edge.size] = edge
    for at in range(ops._TILE, size, ops._TILE):  # both sides of every tile edge
        x[at - edge.size : at + edge.size] = np.concatenate([edge, edge[::-1]])
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [4096, 5 * ops._TILE // 2])  # a whole-array map, a tiled one
@pytest.mark.parametrize("name", ["silu", "gelu"])
def test_tape_activation_bytes_equal_the_plain_kernels(name, size, dtype):
    x = _activation_inputs(dtype, size).reshape(2, -1, 8, 8)
    g = np.random.default_rng(21).normal(size=x.shape).astype(dtype)
    xv = T.Var(x)
    with np.errstate(invalid="ignore", over="ignore"):
        y = getattr(T, name)(xv)
        gx = T.grad_of(T.backward(y, g), xv)
        want_y, want_gx = getattr(ops, name)(x), getattr(ops, name + "_vjp")(g, x)
    assert y.dtype == want_y.dtype and y.value.tobytes() == want_y.tobytes()
    assert gx.dtype == want_gx.dtype and gx.tobytes() == want_gx.tobytes()


def test_backward_frees_interior_cotangents():
    # the extra peak of an input-gradient backward is the incoming plus outgoing
    # cotangent at the largest maps; holding every interior cotangent until the end
    # took 1.4x the all-Var tape here. The base is the all-Var tape, which holds the
    # operands of every VJP and so does not shrink with what an input-only tape keeps.
    _, extra = _tiny_input_gradient_bytes(all_var=False)
    all_var_tape, _ = _tiny_input_gradient_bytes(all_var=True)
    assert extra < 0.5 * all_var_tape, extra / all_var_tape


def _out_of_place_backward(root, seed):
    """backward's walk with every fan-in summed as acc + pg into a fresh array."""
    order, seen, stack = [], set(), [(root.node, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if p is not None and id(p) not in seen)
    grads, leaves = {id(root.node): seed}, {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.vjp is None:
            leaves[id(node.leaf())] = g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if parent is not None and pg is not None:
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
    return leaves


def test_in_place_fan_in_sums_are_bit_identical_to_out_of_place():
    cfg = EMOVariantConfig("tiny", (1, 1, 2, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0))
    for precision, all_var in (("f64", False), ("f64", True), ("f32", True)):
        model = build_emo(cfg, seed=3, precision=precision)
        if all_var:
            model = dataclasses.replace(model, params=_all_var_params(model))
        rng = np.random.default_rng(8)
        x = T.Var(rng.normal(size=(2, 3, 64, 64)).astype(np.float32 if precision == "f32" else np.float64))
        logits = emo_forward(model, x)
        cot = rng.normal(size=logits.shape).astype(logits.dtype)
        got, want = T.backward(logits, cot), _out_of_place_backward(logits, cot)
        assert set(got) == set(want) and (len(got) > 1) == all_var
        for key, g in want.items():
            assert got[key].dtype == g.dtype and got[key].tobytes() == g.tobytes()


def test_fan_in_never_writes_the_seed_or_a_shared_cotangent():
    x0 = np.arange(6.0).reshape(2, 3)
    # add hands the read-only seed to both parents and transpose returns views of it:
    # any sum written into one of them raises
    x = T.Var(x0)
    y = T.add(T.add(x, x), T.transpose(T.transpose(x, (1, 0)), (1, 0)))
    seed = np.full((2, 3), 2.0)
    seed.flags.writeable = False
    np.testing.assert_array_equal(T.grad_of(T.backward(y, seed), x), 3 * seed)
    # interior: add hands scale's output to both branches; summing x's fan-in into
    # it would change what the scale(x, 3) branch reads afterwards
    x = T.Var(x0)
    y = T.scale(T.add(T.add(x, x), T.scale(x, 3.0)), 1.0)
    seed = np.full((2, 3), 2.0)
    np.testing.assert_array_equal(T.grad_of(T.backward(y, seed), x), 5 * seed)
    np.testing.assert_array_equal(seed, 2.0)
