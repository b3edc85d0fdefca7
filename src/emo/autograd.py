"""Minimal reverse-mode tape over the ops primitives.

Blocks and models are written once against the traced wrappers below. Called
with plain ndarrays they run the underlying primitive directly (no graph, no
retained intermediates); called with at least one `Var` they record a node
(`_record`) whose VJP computes the cotangents of its Var parents only: a
weight that is a plain array gets no gradient work.

The tape has two parts. A `Var` is what the forward passes around: a value
and the node that made it. A node is what backward walks: its parent nodes,
its VJP, and the shape and dtype of its value, never the value itself.
Parents link to nodes, not to Vars, so a forward value lives only as long as
the forward holds its Var or a VJP reads it. Which inputs are Vars (`need`)
is known when a node is recorded, and each wrapper's VJP keeps only the
arrays that this `need` makes it read, as PyTorch's save_for_backward does:

- conv2d keeps x only if w is a Var, and w only if x is; matmul keeps a only
  if b is a Var, and b only if a is;
- batchnorm_inference keeps x only if gamma is a Var;
- layernorm_channels keeps x, softmax_lastdim keeps its output;
- silu and gelu keep their derivative dy/dx, which the forward computes from
  the same sigmoid or erf as y, never x: silu's has x's dtype, gelu's is f64
  (so an f32 gelu node holds twice x's bytes);
- add, scale, reshape, transpose and mean_hw keep shapes and dtypes only;
- linear keeps only what its caller's adjoint closure holds.

`backward` walks the nodes in reverse topological order, accumulates
gradients, and drops each interior cotangent as soon as its node's VJP has
consumed it, so the dict it returns holds the leaves' cotangents only. No
VJP writes into its incoming cotangent: add's VJP hands one array to both
parents, and the reshape and transpose VJPs, like the window maps' adjoints,
may return views of it. For
the same reason a fan-in is summed in place only into an array that
backward itself allocated for an earlier sum, never into a VJP's output.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import ops


class _Node:
    """What backward needs of one value: parents, VJP, shape and dtype.

    `parents` has one entry per input of the primitive, None where that
    input is not a Var, and `vjp(g)` returns one cotangent per input (None
    where the parent is None). A leaf has no parents and no VJP; `leaf` is a
    weak reference to its Var, whose id keys the leaf's gradient. A strong
    one would tie Var and node in a cycle, and a bare id could be taken by a
    later leaf once the Var is gone.
    """

    __slots__ = ("parents", "vjp", "shape", "dtype", "leaf")

    def __init__(self, parents, vjp, shape, dtype, leaf=None):
        self.parents = parents
        self.vjp = vjp
        self.shape = shape
        self.dtype = dtype
        self.leaf = leaf


class Var:
    """A value on the tape: the array and the node that made it.

    `Var(value)` is a leaf, the kind whose gradient `backward` returns; the
    traced wrappers build the others, passing their node.
    """

    __slots__ = ("value", "node", "__weakref__")

    def __init__(self, value, node=None):
        self.value = np.asarray(value)
        if node is None:
            node = _Node((), None, self.value.shape, self.value.dtype, weakref.ref(self))
        self.node = node

    @property
    def shape(self):
        return self.node.shape

    @property
    def dtype(self):
        return self.node.dtype

    def __repr__(self):
        return f"Var(shape={self.shape}, dtype={self.dtype})"


def val(x):
    return x.value if isinstance(x, Var) else x


def backward(root: Var, seed=None) -> dict[int, np.ndarray]:
    """Accumulate d(sum(seed * root))/d(leaf) for every leaf Var in root's graph.

    Returns a dict keyed by id(var) that holds leaves only (Vars built
    directly, not by a wrapper, and still held by the caller); interior
    cotangents are freed as they are used. Each returned array is the
    caller's to write: one that is read-only or shares memory with the seed
    or another leaf's is copied. Use `grad_of(grads, var)` to read it. The
    graph is not changed, so a second call gives the same result.
    """
    if not isinstance(root, Var):
        raise TypeError("backward expects a Var root")
    if seed is None:
        seed = np.ones(root.shape, root.dtype)
    seed = np.asarray(seed)
    if seed.shape != root.shape:
        raise ValueError(f"cotangent shaped {seed.shape}, output is {root.shape}")

    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root.node, False)]
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
            if p is not None and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root.node): seed.astype(root.dtype, copy=False)}
    # nodes whose cotangent is a sum this loop allocated: only those are added
    # into in place, never an array a VJP returned, which may be shared or a view
    summed: set[int] = set()
    leaves: dict[int, np.ndarray] = {}
    for node in reversed(order):
        # every consumer of node ran before it, so its cotangent is complete
        # and, once passed on, needed no more
        g = grads.pop(id(node), None)
        summed.discard(id(node))
        if g is None:
            continue
        if node.vjp is None:
            var = node.leaf()
            if var is not None:  # a leaf nobody holds has no gradient to read
                leaves[id(var)] = g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if parent is None or pg is None:
                continue
            key = id(parent)
            acc = grads.get(key)
            if acc is None:
                grads[key] = pg
            elif key in summed and isinstance(acc, np.ndarray) and acc.shape == np.shape(pg) \
                    and np.result_type(acc, pg) == acc.dtype:
                acc += pg  # the same IEEE sum as acc + pg, without a fresh array
            else:
                grads[key] = acc + pg
                summed.add(key)
    return _owned(leaves, seed)


def _owned(leaves: dict[int, np.ndarray], seed: np.ndarray) -> dict[int, np.ndarray]:
    """Copy each leaf cotangent that is read-only or whose memory is already handed out."""
    taken = {id(_memory_owner(seed))}
    for key, g in leaves.items():
        owner = _memory_owner(g)
        if not g.flags.writeable or id(owner) in taken:
            leaves[key] = g.copy()
        else:
            taken.add(id(owner))
    return leaves


def _memory_owner(a: np.ndarray):
    """The object whose memory a views: the end of its chain of bases."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a if a.base is None else a.base


def grad_of(grads: dict, var: Var) -> np.ndarray:
    g = grads.get(id(var))
    return g if g is not None else np.zeros_like(var.value)


# ---------------------------------------------------------------------------
# traced wrappers


def _unbroadcast(g, shape):
    return ops._unbroadcast(np.asarray(g), tuple(shape))


def _record(y, inputs, save):
    """Put y on the tape as a node over the Var entries of `inputs`.

    Returns y bare when no input is a Var. Otherwise `save(need)` is called
    once, with one flag per input, True where that input is a Var. It
    returns the node's VJP, `vjp(g)`, which gives one cotangent per input
    (None where the flag is False) and whose closure holds only what those
    cotangents read: `save` itself is dropped here.
    """
    for p in inputs:  # the untraced path runs on every primitive call: keep it to this loop
        if isinstance(p, Var):
            break
    else:
        return y
    need = tuple(isinstance(p, Var) for p in inputs)
    parents = tuple(p.node if n else None for p, n in zip(inputs, need))
    return Var(y, _Node(parents, save(need), y.shape, y.dtype))


def add(a, b):
    def save(need):
        sa, sb = np.shape(val(a)), np.shape(val(b))
        return lambda g: (_unbroadcast(g, sa) if need[0] else None, _unbroadcast(g, sb) if need[1] else None)

    return _record(val(a) + val(b), (a, b), save)


def residual_add(a, b):
    """`add` for a skip connection, metered as `other_adds` like count_costs.

    Plain `add` is left unmetered: the attention key-bias add is not part of
    the static counts.
    """
    y = add(a, b)
    ops._meter(other_adds=np.size(val(y)))
    return y


def scale(x, c: float):
    return _record(val(x) * c, (x,), lambda need: lambda g: (g * c,))


def matmul(a, b):
    av, bv = val(a), val(b)

    def save(need):
        keep_a, keep_b = (av if need[1] else None), (bv if need[0] else None)
        shapes, dtypes = (av.shape, bv.shape), (av.dtype, bv.dtype)
        return lambda g: ops.matmul_vjp(g, keep_a, keep_b, need=need, shapes=shapes, dtypes=dtypes)

    return _record(ops.matmul(av, bv), (a, b), save)


def conv2d(x, w, spec: ops.ConvSpec, b=None):
    xv, wv = val(x), val(w)
    y = ops.conv2d(xv, wv, spec, None if b is None else val(b))

    def save(need):
        keep_x, keep_w = (xv if need[1] else None), (wv if need[0] else None)
        shape, dtype = xv.shape, xv.dtype
        return lambda g: ops.conv2d_vjp(g, keep_x, keep_w, spec, need=need, shape=shape, dtype=dtype)

    return _record(y, (x, w, b), save)


def softmax_lastdim(x):
    y = ops.softmax_lastdim(val(x))
    return _record(y, (x,), lambda need: lambda g: (ops.softmax_lastdim_vjp(g, y),))


def batchnorm_inference(x, gamma, beta, mean, var):
    # mean/var are inference buffers, never differentiated
    mean, var = val(mean), val(var)
    xv, gv = val(x), val(gamma)
    y = ops.batchnorm_inference(xv, gv, val(beta), mean, var)

    def save(need):
        keep_x, dtype = (xv if need[1] else None), xv.dtype
        return lambda g: ops.batchnorm_inference_vjp(g, keep_x, gv, mean, var, need=need, dtype=dtype)

    return _record(y, (x, gamma, beta), save)


def layernorm_channels(x, gamma, beta):
    xv, gv = val(x), val(gamma)
    y = ops.layernorm_channels(xv, gv, val(beta))
    return _record(y, (x, gamma, beta),
                   lambda need: lambda g: ops.layernorm_channels_vjp(g, xv, gv, need=need))


# The silu and gelu VJPs bind dydx as defaults, not closure cells: a cell per
# kept value makes the node larger than one that kept x.


def silu(x):
    if not isinstance(x, Var):
        return ops.silu(x)
    dydx = np.empty(x.shape, x.dtype)
    y = ops.silu(x.value, dydx)
    return _record(y, (x,), lambda need: lambda g, dydx=dydx: (ops.silu_vjp(g, dydx=dydx),))


def gelu(x):
    if not isinstance(x, Var):
        return ops.gelu(x)
    dydx, dtype = np.empty(x.shape), x.dtype
    y = ops.gelu(x.value, dydx)
    return _record(y, (x,), lambda need: lambda g, dydx=dydx, dtype=dtype:
                   (ops.gelu_vjp(g, dydx=dydx, dtype=dtype),))


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
    return _record(xv.reshape(shape), (x,), lambda need: lambda g: (np.asarray(g).reshape(old),))


def transpose(x, axes):
    # the inverse permutation is worked out in the VJP, so untraced calls never pay for it
    return _record(np.transpose(val(x), axes), (x,),
                   lambda need: lambda g: (np.transpose(np.asarray(g), np.argsort(axes)),))


def linear(x, y, adjoint):
    """Record y, a linear map of x that the caller computed, as one node.

    `adjoint(g)` is the map's transpose applied to the cotangent g, so it is
    the node's VJP: for a linear map the VJP is its adjoint.
    """
    return _record(y, (x,), lambda need: lambda g: (adjoint(g),))


def mean_hw(x):
    """Global average pool: (N, C, H, W) -> (N, C)."""
    xv = val(x)
    y = xv.mean(axis=(2, 3))
    ops._meter(other_adds=xv.size)

    def save(need):
        (n, c, h, w), dtype = xv.shape, xv.dtype
        return lambda g: (np.broadcast_to(np.asarray(g).reshape(n, c, 1, 1) / (h * w), (n, c, h, w))
                          .astype(dtype, copy=False),)

    return _record(y, (x,), save)
