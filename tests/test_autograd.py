import dataclasses
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest

from emo import EMOVariantConfig, IRMBConfig, build_emo, emo_forward, ops, random_block_params
from emo import autograd as T
from emo.attention import window_merge, window_partition
from emo.irmb import block_stages, run_stages
from emo.ops import ConvSpec
from test_ops import VJP_FORMULAS


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
    np.testing.assert_allclose(T.grad_of(grads, x), g + VJP_FORMULAS["silu"](g, x.value), atol=1e-12)


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
    tokens, layout = window_partition(x0, 3, 2)
    assert (layout.pad_h, layout.pad_w) == (1, 2)
    assert tokens.shape == (2 * layout.num_windows, 2, 9, 2)
    t0 = rng.normal(size=tokens.shape)

    x = T.Var(x0)
    part, _ = window_partition(x, 3, 2)
    assert part.node.parents == (x.node,) and part.node.vjp is not None
    gx = T.grad_of(T.backward(part, t0), x)
    assert gx.tobytes() == window_merge(t0, layout, 2).tobytes()

    t = T.Var(t0)
    merged = window_merge(t, layout, 2)
    assert merged.node.parents == (t.node,) and merged.node.vjp is not None
    cot = rng.normal(size=x0.shape)
    gt = T.grad_of(T.backward(merged, cot), t)
    assert gt.tobytes() == window_partition(cot, 3, 2)[0].tobytes()

    # <partition(x), t> == <x, merge(t)>: the maps are each other's transpose
    assert abs(float((tokens * t0).sum()) - float((x0 * window_merge(t0, layout, 2)).sum())) < 1e-12


def _recorded_nodes(root: T.Var) -> int:
    """Nodes with a VJP in root's graph: what one forward put on the tape."""
    seen, stack, recorded = set(), [root.node], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            recorded += node.vjp is not None
            stack += [p for p in node.parents if p is not None]
    return recorded


@pytest.mark.parametrize("hw,nodes", [((5, 7), 12), ((4, 4), 11)], ids=["padded", "unpadded"])
def test_attention_mix_records_one_node_per_window_map(hw, nodes):
    # the block's qk + mix stages: q and k convs, three partitions, k's
    # transpose, the logit matmul and scale, the key-padding add (padded maps
    # only), softmax, the value matmul and one merge: no head split or merge
    # on the tape
    cfg = IRMBConfig(8, 8, 2.0, window=4, heads=2)
    params = {k: T.Var(v) for k, v in random_block_params(cfg, 0).items()}
    rng = np.random.default_rng(3)
    u, v = T.Var(rng.normal(size=(1, 8, *hw))), T.Var(rng.normal(size=(1, 16, *hw)))
    qk, mix = [st for st in block_stages(cfg, "") if st.name in ("qk", "mix")]
    assert _recorded_nodes(run_stages([qk, mix], (None, u, v), params)[-1]) == nodes


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
    # backward consumes its graph: a second walk of it raises, and a second
    # forward from the same leaves gives the same cotangents bit for bit
    spec = ConvSpec(2, 3, kernel=3, padding=1)
    rng = np.random.default_rng(4)
    x = T.Var(rng.normal(size=(1, 2, 4, 4)))
    w = T.Var(rng.normal(size=spec.weight_shape()))
    b = rng.normal(size=3)  # a plain array: no gradient, no entry

    def forward():
        h = T.silu(T.conv2d(x, w, spec, b))
        return T.mean_hw(T.add(h, T.scale(h, 0.5)))

    cot = rng.normal(size=(1, 3))
    y = forward()
    first = T.backward(y, cot)
    assert set(first) == {id(x), id(w)}
    with pytest.raises(RuntimeError, match="run the forward again"):
        T.backward(y, cot)
    second = T.backward(forward(), cot)
    assert set(second) == set(first)
    for key, g in first.items():
        assert g.tobytes() == second[key].tobytes()


def test_a_second_backward_over_a_spent_node_raises():
    # two roots over one shared node: the first walk spends it, so the second
    # raises before it runs any VJP, and so does a node no cotangent reached
    x = T.Var(np.arange(6.0).reshape(2, 3))
    h = T.silu(x)
    y1, y2 = T.scale(h, 2.0), T.scale(h, 3.0)
    T.backward(y1)
    with pytest.raises(RuntimeError, match="run the forward again"):
        T.backward(y2)
    assert y2.node.vjp is not T._consumed  # a raising walk spends nothing

    h = T.silu(x)
    blocked = T._record(h.value.copy(), (h,), lambda need: lambda g: (None,))
    assert T.grad_of(T.backward(blocked), x).tobytes() == np.zeros_like(x.value).tobytes()
    with pytest.raises(RuntimeError, match="run the forward again"):
        T.backward(T.scale(h, 1.0))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_backward_rejects_a_seed_that_does_not_cast_into_the_output(dtype):
    x = T.Var(np.ones((2, 3)))
    with pytest.raises(ValueError, match=rf"{np.dtype(dtype)}.*float64"):
        T.backward(T.scale(x, 2.0), np.ones((2, 3), dtype) * 1j)


def test_backward_casts_a_same_kind_seed_into_the_output():
    x32 = T.Var(np.ones((2, 3), np.float32))
    seed = np.linspace(0.1, 0.6, 6).reshape(2, 3)
    g = T.grad_of(T.backward(T.scale(x32, 2.0), seed), x32)
    assert g.dtype == np.float32 and g.tobytes() == (seed.astype(np.float32) * 2.0).tobytes()
    x = T.Var(np.ones((2, 3)))
    g = T.grad_of(T.backward(T.scale(x, 2.0), np.arange(6).reshape(2, 3)), x)
    assert g.dtype == np.float64 and g.tobytes() == (np.arange(6.0).reshape(2, 3) * 2.0).tobytes()


def test_grad_of_refuses_an_interior_var():
    x = T.Var(np.ones((2, 3)))
    y = T.scale(x, 2.0)
    grads = T.backward(T.scale(y, 3.0))
    np.testing.assert_array_equal(T.grad_of(grads, x), np.full((2, 3), 6.0))
    with pytest.raises(ValueError, match="only leaf Vars have gradients"):
        T.grad_of(grads, y)


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


def _kept_bytes(root: T.Var) -> int:
    """Bytes of the distinct arrays that the VJPs of root's graph keep.

    Walks every node from root's and every array, tuple and function that
    its VJP holds, in closure cells or as argument defaults; a view counts
    as the array it views, once.
    """
    seen, kept, todo = set(), {}, [root.node]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, T._Node):
            todo += [p for p in obj.parents if p is not None] + [obj.vjp]
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            kept[id(obj)] = obj.nbytes
        elif isinstance(obj, (tuple, list)):
            todo += obj
        elif callable(obj):
            todo += [cell.cell_contents for cell in getattr(obj, "__closure__", None) or ()]
            todo += getattr(obj, "__defaults__", None) or ()
    return sum(kept.values())


_TINY = EMOVariantConfig("tiny", (1, 1, 2, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0))


class _TracedRequest(NamedTuple):
    """Traced bytes of one input-gradient request, each above the base before its forward."""
    tape: int           # held once the forward has returned
    forward_peak: int
    backward_peak: int
    kept: int           # `_kept_bytes` of the tape, taken before the backward spends it


def _tiny_input_gradient_bytes(all_var: bool) -> _TracedRequest:
    """One input gradient of the tiny variant at 64 px, f64, batch 2, traced.

    With `all_var` every weight is a Var too.
    """
    model = build_emo(_TINY, seed=0, precision="f64")
    if all_var:
        model = dataclasses.replace(model, params=_all_var_params(model))
    rng = np.random.default_rng(7)
    x = T.Var(rng.normal(size=(2, 3, 64, 64)))
    cot = rng.normal(size=(2, _TINY.num_classes))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits = emo_forward(model, x)
        tape, forward_peak = tracemalloc.get_traced_memory()
        kept = _kept_bytes(logits)
        tracemalloc.reset_peak()
        T.backward(logits, cot)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return _TracedRequest(tape - base, forward_peak - base, backward_peak - base, kept)


def test_input_only_tape_keeps_only_what_its_vjps_read():
    # with weights as plain arrays no VJP reads a conv or batchnorm input, so the
    # tape holds well under what the all-Var forward must keep (a tape keeping
    # every forward value measured the same for both)
    _tiny_input_gradient_bytes(all_var=False)  # the first call makes one-time allocations
    tape = _tiny_input_gradient_bytes(all_var=False).tape
    all_var_tape = _tiny_input_gradient_bytes(all_var=True).tape
    assert tape < 0.6 * all_var_tape, tape / all_var_tape


def _vjp_from_x(name, g, x):
    """The activation's VJP with dy/dx evaluated from x, by the forward kernel's own formula."""
    if name == "silu":
        return ops.silu_vjp(g, ops._silu_dydx(x, ops._sigmoid(x), np.empty(x.shape, x.dtype)))
    return ops.gelu_vjp(g, ops._gelu_dydx(x, ops._erf1(x), np.empty(x.shape)), x.dtype)


def _keep_input_activations(monkeypatch):
    """Swap in silu and gelu wrappers whose nodes keep x and evaluate the derivative from it."""
    def keep_input(name):
        def wrapper(x):
            xv = T.val(x)
            return T._record(getattr(ops, name)(xv), (x,), lambda need: lambda g: (_vjp_from_x(name, g, xv),))
        return wrapper

    monkeypatch.setattr(T, "silu", keep_input("silu"))
    monkeypatch.setattr(T, "gelu", keep_input("gelu"))


def test_derivative_keeping_tape_is_no_larger_than_an_input_keeping_one(monkeypatch):
    # an f64 node keeps dy/dx of x's size in place of x, which is then freed: the
    # arrays the tape keeps must not grow. The tape is measured by those arrays'
    # bytes: tracemalloc's total also counts small allocations that move with the hash seed
    kept = _tiny_input_gradient_bytes(all_var=False).kept
    _keep_input_activations(monkeypatch)
    keep_input_kept = _tiny_input_gradient_bytes(all_var=False).kept
    assert kept <= keep_input_kept, (kept, keep_input_kept)


@pytest.mark.parametrize("name", ["silu", "gelu"])
def test_derivative_keeping_vjp_evaluates_no_sigmoid_or_erf(name, monkeypatch):
    # the VJP only multiplies g by the kept dy/dx, so its traced peak is the
    # cotangent it returns; one that keeps x evaluates sigmoid or erf and dy/dx
    # first. A whole backward does not tell the two apart: with each node freeing
    # what it kept, both peak at the same large-map cotangent
    rng = np.random.default_rng(24)
    x = rng.normal(size=(2, 16, 32, 32))
    g = rng.normal(size=x.shape)

    def vjp_peak():
        y = getattr(T, name)(T.Var(x))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y.node.vjp(g)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    derivative_keeping = vjp_peak()
    _keep_input_activations(monkeypatch)
    input_keeping = vjp_peak()
    assert derivative_keeping < 1.5 * x.nbytes <= input_keeping, (derivative_keeping, input_keeping)


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
    assert gh.tobytes() == VJP_FORMULAS[name](g, h_value).tobytes()


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
        want_y, want_gx = getattr(ops, name)(x), VJP_FORMULAS[name](g, x)
    assert y.dtype == want_y.dtype and y.value.tobytes() == want_y.tobytes()
    # a NaN's sign bit carries no value, so only the rest is compared bitwise
    nan = np.isnan(want_gx)
    assert gx.dtype == want_gx.dtype and np.array_equal(np.isnan(gx), nan)
    assert gx[~nan].tobytes() == want_gx[~nan].tobytes()


def test_backward_frees_interior_cotangents():
    # the extra peak of an input-gradient backward is the incoming plus outgoing
    # cotangent at the largest maps; holding every interior cotangent until the end
    # took 1.4x the all-Var tape here. The base is the all-Var tape, which holds the
    # operands of every VJP and so does not shrink with what an input-only tape keeps.
    _tiny_input_gradient_bytes(all_var=False)  # the first call makes one-time allocations
    request = _tiny_input_gradient_bytes(all_var=False)
    extra = request.backward_peak - request.tape
    all_var_tape = _tiny_input_gradient_bytes(all_var=True).tape
    assert extra < 0.5 * all_var_tape, extra / all_var_tape


def test_backward_peaks_within_its_forward():
    # each node frees what its VJP kept once its cotangents are out, so the
    # backward's cotangents replace the tape instead of piling on top of it;
    # holding the whole tape through the walk peaked about 20% above the forward
    _tiny_input_gradient_bytes(all_var=False)  # the first call makes one-time allocations
    request = _tiny_input_gradient_bytes(all_var=False)
    assert request.backward_peak <= request.forward_peak, request


def test_backward_spends_the_tape_and_leaves_the_model():
    model = build_emo(_TINY, seed=0, precision="f64")
    params = {k: v.copy() for k, v in model.params.items()}
    rng = np.random.default_rng(7)
    x = T.Var(rng.normal(size=(2, 3, 64, 64)))
    logits = emo_forward(model, x)
    assert _kept_bytes(logits) > 0
    T.backward(logits, rng.normal(size=logits.shape))
    assert _kept_bytes(logits) == 0
    assert model.params.keys() == params.keys()
    for k, v in params.items():
        assert model.params[k].tobytes() == v.tobytes(), k


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
    for precision, all_var in (("f64", False), ("f64", True), ("f32", True)):
        model = build_emo(_TINY, seed=3, precision=precision)
        if all_var:
            model = dataclasses.replace(model, params=_all_var_params(model))
        rng = np.random.default_rng(8)
        x = T.Var(rng.normal(size=(2, 3, 64, 64)).astype(np.float32 if precision == "f32" else np.float64))
        logits = emo_forward(model, x)
        cot = rng.normal(size=logits.shape).astype(logits.dtype)
        # backward spends its graph, so the reference walks a second forward's
        got, want = T.backward(logits, cot), _out_of_place_backward(emo_forward(model, x), cot)
        assert set(got) == set(want) and (len(got) > 1) == all_var
        for key, g in want.items():
            assert got[key].dtype == g.dtype and got[key].tobytes() == g.tobytes()


def test_every_leaf_cotangent_owns_its_memory():
    # the stem VJP crops the input gradient out of its padded buffer, and add hands
    # one array to both parents: a leaf gets a fan-in sum backward allocated as it
    # is and a copy of anything else, so no returned array is a view or shared
    model = build_emo(_TINY, seed=3, precision="f64")
    model = dataclasses.replace(model, params=_all_var_params(model))
    x = T.Var(np.random.default_rng(8).normal(size=(1, 3, 64, 64)))
    logits = emo_forward(model, x)
    seed = np.ones(logits.shape)
    grads = T.backward(logits, seed)
    assert id(x) in grads and len(grads) > 1
    for g in grads.values():
        assert g.base is None and g.flags.writeable
        assert not np.shares_memory(g, seed)
    assert len({id(g) for g in grads.values()}) == len(grads)


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
