"""Minimal reverse-mode tape over the ops primitives.

Blocks and models are written once against the traced wrappers below. Called
with plain ndarrays they run the underlying primitive directly (no graph, no
retained intermediates); called with at least one `Var` they record a node
(`_record`) whose VJP computes the cotangents of its Var parents only: a
weight that is a plain array gets no gradient work. `backward` walks the
graph in reverse topological order, accumulates gradients, and drops each
interior cotangent as soon as its node's VJP has consumed it, so the dict it
returns holds the leaves' cotangents only.
"""

from __future__ import annotations

import numpy as np

from . import ops


class Var:
    """A value on the tape."""

    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self.vjp = vjp  # callable(g) -> sequence of cotangents aligned with parents

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype})"


def val(x):
    return x.value if isinstance(x, Var) else x


def is_var(x):
    return isinstance(x, Var)


def backward(root: Var, seed=None) -> dict[int, np.ndarray]:
    """Accumulate d(sum(seed * root))/d(leaf) for every leaf Var in root's graph.

    Returns a dict keyed by id(var) that holds leaves only (Vars built
    directly, not by a wrapper); interior cotangents are freed as they are
    used. Use `grad_of(grads, var)` to read it. The graph is not changed, so
    a second call gives the same result.
    """
    if not isinstance(root, Var):
        raise TypeError("backward expects a Var root")
    if seed is None:
        seed = np.ones_like(root.value)
    seed = np.asarray(seed)
    if seed.shape != root.value.shape:
        raise ValueError(f"cotangent shaped {seed.shape}, output is {root.value.shape}")

    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): seed.astype(root.value.dtype, copy=False)}
    for node in reversed(order):
        if node.vjp is None:
            continue  # a leaf: its cotangent is the result
        # every consumer of node ran before it, so its cotangent is complete
        # and, once passed to the parents, needed no more
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def grad_of(grads: dict, var: Var) -> np.ndarray:
    g = grads.get(id(var))
    return g if g is not None else np.zeros_like(var.value)


# ---------------------------------------------------------------------------
# traced wrappers


def _unbroadcast(g, shape):
    return ops._unbroadcast(np.asarray(g), tuple(shape))


def _record(y, inputs, vjp):
    """Put y on the tape as a node over the Var entries of `inputs`.

    Returns y bare when no input is a Var. Otherwise `vjp(g, need)` is
    called with one flag per input, True where that input is a Var, and
    returns one cotangent per input (None where the flag is False); only the
    Var parents' cotangents are kept.
    """
    for p in inputs:  # the untraced path runs on every primitive call: keep it to this loop
        if isinstance(p, Var):
            break
    else:
        return y
    need = tuple(isinstance(p, Var) for p in inputs)
    parents = [p for p, n in zip(inputs, need) if n]
    return Var(y, parents, lambda g: [pg for pg, n in zip(vjp(g, need), need) if n])


def add(a, b):
    # a needed input is a Var parent, so its shape is read from it at backward time
    return _record(val(a) + val(b), (a, b), lambda g, need: (
        _unbroadcast(g, a.shape) if need[0] else None,
        _unbroadcast(g, b.shape) if need[1] else None,
    ))


def residual_add(a, b):
    """`add` for a skip connection, metered as `other_adds` like count_costs.

    Plain `add` is left unmetered: the attention key-bias add is not part of
    the static counts.
    """
    y = add(a, b)
    ops._meter(other_adds=np.size(val(y)))
    return y


def scale(x, c: float):
    return _record(val(x) * c, (x,), lambda g, need: (g * c,))


def matmul(a, b):
    av, bv = val(a), val(b)
    return _record(ops.matmul(av, bv), (a, b), lambda g, need: ops.matmul_vjp(g, av, bv, need=need))


def conv2d(x, w, spec: ops.ConvSpec, b=None):
    xv, wv = val(x), val(w)
    y = ops.conv2d(xv, wv, spec, None if b is None else val(b))
    return _record(y, (x, w, b), lambda g, need: ops.conv2d_vjp(g, xv, wv, spec, need=need))


def softmax_lastdim(x):
    y = ops.softmax_lastdim(val(x))
    return _record(y, (x,), lambda g, need: (ops.softmax_lastdim_vjp(g, y),))


def batchnorm_inference(x, gamma, beta, mean, var, eps=1e-5):
    # mean/var are inference buffers, never differentiated
    mean, var = val(mean), val(var)
    xv, gv, bv = val(x), val(gamma), val(beta)
    y = ops.batchnorm_inference(xv, gv, bv, mean, var, eps)
    return _record(y, (x, gamma, beta),
                   lambda g, need: ops.batchnorm_inference_vjp(g, xv, gv, bv, mean, var, eps, need=need))


def layernorm_channels(x, gamma, beta, eps=1e-5):
    xv, gv, bv = val(x), val(gamma), val(beta)
    y = ops.layernorm_channels(xv, gv, bv, eps)
    return _record(y, (x, gamma, beta), lambda g, need: ops.layernorm_channels_vjp(g, xv, gv, bv, eps, need=need))


def silu(x):
    xv = val(x)
    return _record(ops.silu(xv), (x,), lambda g, need: (ops.silu_vjp(g, xv),))


def gelu(x):
    xv = val(x)
    return _record(ops.gelu(xv), (x,), lambda g, need: (ops.gelu_vjp(g, xv),))


def activate(x, kind):
    if kind == "silu":
        return silu(x)
    if kind == "gelu":
        return gelu(x)
    if kind == "none" or kind is None:
        return x
    raise ValueError(f"unknown activation {kind!r}")


def reshape(x, shape):
    xv = val(x)
    old = xv.shape
    return _record(xv.reshape(shape), (x,), lambda g, need: (np.asarray(g).reshape(old),))


def transpose(x, axes):
    # the inverse permutation is worked out in the VJP, so untraced calls never pay for it
    return _record(np.transpose(val(x), axes), (x,), lambda g, need: (np.transpose(np.asarray(g), np.argsort(axes)),))


def pad_hw_bottom_right(x, pad_h: int, pad_w: int):
    """Zero-pad the bottom/right of an NCHW map."""
    xv = val(x)
    if pad_h == 0 and pad_w == 0:
        return x
    y = np.pad(xv, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)))
    h, w = xv.shape[2], xv.shape[3]
    return _record(y, (x,), lambda g, need: (np.asarray(g)[:, :, :h, :w],))


def crop_hw(x, h: int, w: int):
    xv = val(x)
    if xv.shape[2] == h and xv.shape[3] == w:
        return x
    ph, pw = xv.shape[2] - h, xv.shape[3] - w
    return _record(xv[:, :, :h, :w], (x,),
                   lambda g, need: (np.pad(np.asarray(g), ((0, 0), (0, 0), (0, ph), (0, pw))),))


def mean_hw(x):
    """Global average pool: (N, C, H, W) -> (N, C)."""
    xv = val(x)
    y = xv.mean(axis=(2, 3))
    ops._meter(other_adds=xv.size)
    n, c, h, w = xv.shape

    def vjp(g, need):
        g = np.asarray(g).reshape(n, c, 1, 1)
        return (np.broadcast_to(g / (h * w), xv.shape).astype(xv.dtype, copy=False),)

    return _record(y, (x,), vjp)
