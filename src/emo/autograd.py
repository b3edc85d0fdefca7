"""Minimal reverse-mode tape over the ops primitives.

Blocks and models are written once against the traced wrappers below. Called
with plain ndarrays they run the underlying primitive directly (no graph, no
retained intermediates); called with at least one `Var` they record a node
whose VJP closure routes cotangents to the Var parents. `backward` walks the
graph in reverse topological order and accumulates gradients.
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
        self.vjp = vjp  # callable(g) -> tuple of cotangents aligned with parents

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


def _any_var(*xs):
    return any(isinstance(x, Var) for x in xs)


def backward(root: Var, seed=None) -> dict[int, np.ndarray]:
    """Accumulate d(sum(seed * root))/d(leaf) for every Var in root's graph.

    Returns a dict keyed by id(var). Use `grad_of(grads, var)` to read it.
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
        g = grads.get(id(node))
        if g is None or node.vjp is None:
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


def add(a, b):
    y = val(a) + val(b)
    if not _any_var(a, b):
        return y
    ash, bsh = np.shape(val(a)), np.shape(val(b))

    def vjp(g):
        out = []
        if is_var(a):
            out.append(_unbroadcast(g, ash))
        if is_var(b):
            out.append(_unbroadcast(g, bsh))
        return tuple(out)

    return Var(y, [p for p in (a, b) if is_var(p)], vjp)


def residual_add(a, b):
    """`add` for a skip connection, metered as `other_adds` like count_costs.

    Plain `add` is left unmetered: the attention key-bias add is not part of
    the static counts.
    """
    y = add(a, b)
    ops._meter(other_adds=np.size(val(y)))
    return y


def scale(x, c: float):
    y = val(x) * c
    if not is_var(x):
        return y
    return Var(y, (x,), lambda g: (g * c,))


def matmul(a, b):
    y = ops.matmul(val(a), val(b))
    if not _any_var(a, b):
        return y
    av, bv = val(a), val(b)

    def vjp(g):
        ga, gb = ops.matmul_vjp(g, av, bv)
        out = []
        if is_var(a):
            out.append(ga)
        if is_var(b):
            out.append(gb)
        return tuple(out)

    return Var(y, [p for p in (a, b) if is_var(p)], vjp)


def conv2d(x, w, spec: ops.ConvSpec, b=None):
    y = ops.conv2d(val(x), val(w), spec, None if b is None else val(b))
    args = [x, w] + ([b] if b is not None else [])
    if not _any_var(*args):
        return y
    xv, wv = val(x), val(w)

    def vjp(g):
        gx, gw, gb = ops.conv2d_vjp(g, xv, wv, spec)
        out = []
        if is_var(x):
            out.append(gx)
        if is_var(w):
            out.append(gw)
        if b is not None and is_var(b):
            out.append(gb)
        return tuple(out)

    return Var(y, [p for p in args if is_var(p)], vjp)


def softmax_lastdim(x):
    y = ops.softmax_lastdim(val(x))
    if not is_var(x):
        return y
    return Var(y, (x,), lambda g: (ops.softmax_lastdim_vjp(g, y),))


def batchnorm_inference(x, gamma, beta, mean, var, eps=1e-5):
    # mean/var are inference buffers, never differentiated
    mean, var = val(mean), val(var)
    y = ops.batchnorm_inference(val(x), val(gamma), val(beta), mean, var, eps)
    if not _any_var(x, gamma, beta):
        return y
    xv, gv, bv = val(x), val(gamma), val(beta)

    def vjp(g):
        gx, ggam, gbet = ops.batchnorm_inference_vjp(g, xv, gv, bv, mean, var, eps)
        out = []
        if is_var(x):
            out.append(gx)
        if is_var(gamma):
            out.append(ggam)
        if is_var(beta):
            out.append(gbet)
        return tuple(out)

    return Var(y, [p for p in (x, gamma, beta) if is_var(p)], vjp)


def layernorm_channels(x, gamma, beta, eps=1e-5):
    y = ops.layernorm_channels(val(x), val(gamma), val(beta), eps)
    if not _any_var(x, gamma, beta):
        return y
    xv, gv, bv = val(x), val(gamma), val(beta)

    def vjp(g):
        gx, ggam, gbet = ops.layernorm_channels_vjp(g, xv, gv, bv, eps)
        out = []
        if is_var(x):
            out.append(gx)
        if is_var(gamma):
            out.append(ggam)
        if is_var(beta):
            out.append(gbet)
        return tuple(out)

    return Var(y, [p for p in (x, gamma, beta) if is_var(p)], vjp)


def silu(x):
    y = ops.silu(val(x))
    if not is_var(x):
        return y
    xv = val(x)
    return Var(y, (x,), lambda g: (ops.silu_vjp(g, xv),))


def gelu(x):
    y = ops.gelu(val(x))
    if not is_var(x):
        return y
    xv = val(x)
    return Var(y, (x,), lambda g: (ops.gelu_vjp(g, xv),))


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
    y = xv.reshape(shape)
    if not is_var(x):
        return y
    old = xv.shape
    return Var(y, (x,), lambda g: (np.asarray(g).reshape(old),))


def transpose(x, axes):
    y = np.transpose(val(x), axes)
    if not is_var(x):
        return y
    inverse = tuple(np.argsort(axes))
    return Var(y, (x,), lambda g: (np.transpose(np.asarray(g), inverse),))


def pad_hw_bottom_right(x, pad_h: int, pad_w: int):
    """Zero-pad the bottom/right of an NCHW map."""
    xv = val(x)
    if pad_h == 0 and pad_w == 0:
        return x
    y = np.pad(xv, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)))
    if not is_var(x):
        return y
    h, w = xv.shape[2], xv.shape[3]
    return Var(y, (x,), lambda g: (np.asarray(g)[:, :, :h, :w],))


def crop_hw(x, h: int, w: int):
    xv = val(x)
    if xv.shape[2] == h and xv.shape[3] == w:
        return x
    y = xv[:, :, :h, :w]
    if not is_var(x):
        return y
    ph, pw = xv.shape[2] - h, xv.shape[3] - w
    return Var(y, (x,), lambda g: (np.pad(np.asarray(g), ((0, 0), (0, 0), (0, ph), (0, pw))),))


def mean_hw(x):
    """Global average pool: (N, C, H, W) -> (N, C)."""
    xv = val(x)
    y = xv.mean(axis=(2, 3))
    ops._meter(other_adds=xv.size)
    if not is_var(x):
        return y
    n, c, h, w = xv.shape

    def vjp(g):
        g = np.asarray(g).reshape(n, c, 1, 1)
        return (np.broadcast_to(g / (h * w), xv.shape).astype(xv.dtype, copy=False),)

    return Var(y, (x,), vjp)
