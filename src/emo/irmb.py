"""Inverted residual mobile block with expanded-window attention.

The block is: expansion stage (plain MLP, or EW-MHSA where the attention
matrix computed from the *unexpanded* input multiplies either the raw
features before the expansion MLP - `attn_at="pre_norm"`, cheaper - or the
expanded values after it - `attn_at="expand"`), then depth-wise conv with an
inner skip at the expanded width (stride lives here), then the shrink MLP
and the outer residual.

Two switches (`enable_attn`, `enable_conv`) select the operator: both off
degenerates to a pure MLP block, conv only is an IRB, attention only is a
windowed transformer block, both on is the full cascade. Two more fields
place it: `attn_at` names the stage EW-MHSA follows (pre_norm, expand, act
or depthwise), and `inner_skip` whether a stride-1 depth-wise stage adds its
input back. So one config states this block and every meta mobile block
(mmb.py) alike.

`irmb_forward` is the one block core: it folds the input through
`block_stages`, the block as an ordered list of named stages, each carrying
the cost lines it executes and the leaves it reads, cached by config value:
the model's stage list, the parameter table, the cost counter and gradient
checking read the same list. EW-MHSA runs only as its qk + mix stage pair,
which `ew_mhsa` folds too.

The two multiplication orders provably coincide when the expansion MLP's
group count equals the head count (`orders_equivalent`); `equivalence_check`
measures this on seeded random weights, including the generic failure when
groups != heads.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as T
from .attention import (WindowLayout, attention_weights, key_padding_bias, mix_values, window_merge,
                        window_partition)
from .ops import ConvSpec, CostLine
from .tensor import Rng, dtype_of

_NORMS = ("auto", "none", "batchnorm", "layernorm")
_ACTS = ("auto", "none", "silu", "gelu")
_ATTN_AT = ("pre_norm", "expand", "act", "depthwise")  # the stages EW-MHSA may follow


def default_heads(in_channels: int, mid_channels: int, head_dim: int = 32) -> int:
    """Largest head count <= in_channels/head_dim dividing both widths."""
    for h in range(max(1, in_channels // head_dim), 0, -1):
        if in_channels % h == 0 and mid_channels % h == 0:
            return h
    return 1


@dataclass(frozen=True)
class IRMBConfig:
    in_channels: int
    out_channels: int
    expansion_ratio: float = 4.0
    kernel: int = 3
    window: int = 7
    heads: int | None = None          # None: head_dim-32 rule via default_heads
    stride: int = 1
    enable_attn: bool = True
    enable_conv: bool = True
    attn_at: str = "pre_norm"         # the stage EW-MHSA follows, one of _ATTN_AT
    inner_skip: bool = True           # the depth-wise stage adds its input back at stride 1
    expand_groups: int = 1
    pre_norm: str = "auto"            # auto -> layernorm when attention is on, else none
    expand_norm: str = "auto"         # auto -> batchnorm when attention is off, else none
    expand_act: str = "auto"          # auto -> gelu when attention is on, else silu
    conv_norm: str = "batchnorm"
    conv_act: str = "silu"

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd, got {self.kernel}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.stride == 2 and not self.enable_conv:
            raise ValueError("stride 2 requires the depth-wise conv: no other downsampling path exists")
        if self.attn_at not in _ATTN_AT:
            raise ValueError(f"unknown attn_at {self.attn_at!r}; expected one of {_ATTN_AT}")
        if self.enable_attn and self.attn_at == "depthwise" and (self.stride == 2 or not self.enable_conv):
            raise ValueError(
                "attn_at='depthwise' is ill-posed without a stride-1 depth-wise conv to follow: the "
                "attention matrix comes from the full-resolution input"
            )
        mid = self.expansion_ratio * self.out_channels
        if not math.isfinite(mid) or abs(mid - round(mid)) > 1e-6 or round(mid) < 1:
            raise ValueError(
                f"expansion_ratio * out_channels must be a finite positive integer, "
                f"got {self.expansion_ratio} * {self.out_channels} = {mid}"
            )
        mid = self.mid
        if self.expand_groups < 1 or self.in_channels % self.expand_groups or mid % self.expand_groups:
            raise ValueError(
                f"expand_groups={self.expand_groups} must divide in_channels={self.in_channels} and mid={mid}"
            )
        h = self.num_heads
        if h < 1 or self.in_channels % h or mid % h:
            raise ValueError(f"heads={h} must be positive and divide in_channels={self.in_channels} and mid={mid}")
        for value, allowed in ((self.pre_norm, _NORMS), (self.expand_norm, _NORMS), (self.conv_norm, _NORMS[1:]),
                               (self.expand_act, _ACTS), (self.conv_act, _ACTS[1:])):
            if value not in allowed:
                raise ValueError(f"unknown norm/activation binding {value!r}")

    @property
    def mid(self) -> int:
        return round(self.expansion_ratio * self.out_channels)

    @property
    def num_heads(self) -> int:
        return self.heads if self.heads is not None else default_heads(self.in_channels, self.mid)

    @property
    def orders_equivalent(self) -> bool:
        """Pre- and post-expansion multiplication agree iff groups == heads."""
        return self.expand_groups == self.num_heads

    # resolved norm/activation slots
    @property
    def pre_norm_kind(self) -> str:
        if self.pre_norm != "auto":
            return self.pre_norm
        return "layernorm" if self.enable_attn else "none"

    @property
    def expand_norm_kind(self) -> str:
        if self.expand_norm != "auto":
            return self.expand_norm
        return "none" if self.enable_attn else "batchnorm"

    @property
    def expand_act_kind(self) -> str:
        if self.expand_act != "auto":
            return self.expand_act
        return "gelu" if self.enable_attn else "silu"

    def conv_specs(self) -> dict[str, ConvSpec]:
        cin, cout, mid = self.in_channels, self.out_channels, self.mid
        specs = {
            "expand": ConvSpec(cin, mid, kernel=1, groups=self.expand_groups),
            "shrink": ConvSpec(mid, cout, kernel=1),
        }
        if self.enable_attn:
            specs["q"] = ConvSpec(cin, cin, kernel=1)
            specs["k"] = ConvSpec(cin, cin, kernel=1)
        if self.enable_conv:
            specs["dw"] = ConvSpec(
                mid, mid, kernel=self.kernel, stride=self.stride, padding=(self.kernel - 1) // 2, groups=mid
            )
        return specs

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Leaf name -> shape of every parameter, in stage order: the leaves `block_stages` declare."""
        return {leaf: shape for st in block_stages(self, "") for leaf, shape in st.leaves.items()}


def is_buffer(name: str) -> bool:
    """Whether a leaf is a batchnorm buffer, which the stages read but no gradient flows to."""
    return name.endswith((".mean", ".var"))


_NORM_LEAVES = {"none": (), "layernorm": ("g", "b"), "batchnorm": ("g", "b", "mean", "var")}


@dataclass(frozen=True)
class Layer:
    """One conv over a `ConvSpec`, or one norm of a kind in `_NORMS[1:]` and a width, named `name`.

    Its `leaves` are `name` + ".w" and ".b" (if the spec has a bias) for a
    conv, ".g" and ".b" for a layernorm, those and ".mean" and ".var" for a
    batchnorm; an empty name leaves them bare. layer(x, params) reads exactly
    those leaves, and `lines(h, w, **counts)` is its cost line in `category`
    on an h x w input (none for a "none" norm), `counts` adding the work fused
    into it; its params count the leaves but the buffers (`is_buffer`).
    """

    name: str
    spec: ConvSpec | str  # a conv's shape, or a norm's kind
    category: str = "norm"  # a conv states its own
    width: int = 0  # a norm's channel count

    @functools.cached_property
    def leaves(self) -> dict[str, tuple[int, ...]]:
        prefix = self.name + "." if self.name else ""
        if isinstance(self.spec, ConvSpec):
            return {prefix + "w": self.spec.weight_shape(),
                    **({prefix + "b": (self.spec.out_channels,)} if self.spec.bias else {})}
        return {prefix + leaf: (self.width,) for leaf in _NORM_LEAVES[self.spec]}

    def __call__(self, x, params):
        args = [params[key] for key in self.leaves]
        if isinstance(self.spec, ConvSpec):
            return T.conv2d(x, args[0], self.spec, *args[1:])
        if self.spec == "layernorm":
            return T.layernorm_channels(x, *args)
        return T.batchnorm_inference(x, *args) if self.spec == "batchnorm" else x

    def lines(self, h: int, w: int, **counts) -> list[CostLine]:
        if isinstance(self.spec, ConvSpec):
            ho, wo = self.spec.out_hw(h, w)
            counts |= {"macs": self.spec.macs(h, w), "bias_adds": self.spec.out_channels * ho * wo * self.spec.bias}
        elif self.spec == "none":
            return []
        else:
            counts["norm_elems"] = self.width * h * w
        params = sum(math.prod(shape) for key, shape in self.leaves.items() if not is_buffer(key))
        return [CostLine(self.name, self.category, params=params, **counts)]


def init_params(shapes: dict[str, tuple[int, ...]], rng: Rng, precision: str = "f32") -> dict[str, np.ndarray]:
    """The one init rule, leaf by leaf: `.w` ~ N(0, 1/fan_in) with fan_in =
    prod(shape[1:]) (the (in/groups)*k*k of a conv weight), drawn from the
    stream named after the leaf; `.g` and `.var` ones; every other leaf zeros."""
    dt = dtype_of(precision)
    params: dict[str, np.ndarray] = {}
    for leaf, shape in shapes.items():
        kind = leaf.rsplit(".", 1)[1]
        if kind == "w":
            params[leaf] = rng.normal(leaf, shape, std=math.prod(shape[1:]) ** -0.5, precision=precision)
        else:
            params[leaf] = np.full(shape, 1.0 if kind in ("g", "var") else 0.0, dtype=dt)
    return params


def irmb_init_params(cfg: IRMBConfig, rng: Rng, precision: str = "f32") -> dict[str, np.ndarray]:
    return init_params(cfg.param_shapes(), rng, precision)


def ew_mhsa(x, cfg: IRMBConfig, params):
    """Expanded-window attention stage: unexpanded Q/K, expanded values.

    Returns the expanded features (cfg.mid channels) at the input resolution,
    folding the block's qk, mix and expand stages from the state (x, x, x).
    With `attn_at="pre_norm"` the per-head attention matrices multiply the
    raw head slices of x and the expansion MLP runs afterwards; with
    `attn_at="expand"` the expansion runs first and attention mixes its
    output. Any other `attn_at` raises ValueError.
    """
    if not cfg.enable_attn:
        raise ValueError("ew_mhsa called on a config with enable_attn=False")
    if cfg.attn_at not in ("pre_norm", "expand"):
        raise ValueError(f"ew_mhsa multiplies before or after the expansion, not at attn_at={cfg.attn_at!r}")
    stages = [st for st in block_stages(cfg, "") if st.name in ("qk", "mix", "expand")]
    return run_stages(stages, (x, x, x), params)[-1]


@dataclass(frozen=True)
class Stage:
    """A named fold step, called as stage(state, params), with the cost lines it runs on an h x w map.

    `lines` defaults to none, for the stages that only a gradient check
    builds and nothing counts: its input stage, and a primitive's or a bare
    conv's one stage. A model's or block's stages are checked as they are,
    lines included. `conv` is the stage's spatial conv (the stem's or the
    depth-wise one), from which `out_hw` follows, and `window` the attention
    window of a stage that mixes positions (an EW-MHSA mix); None where there
    is none. The structural analyses read only these two.

    `leaves` maps each leaf the stage reads from its mapping argument, under
    its full name, to its shape, batchnorm buffers included; the library
    states it with the stage, and no caller sets it. A model's or block's
    stage declares the union of its `Layer` records' leaves. The parameter tables
    (`IRMBConfig.param_shapes`, `EMOVariantConfig.param_shapes`) are the
    union of a stage list's leaves, and a gradient check resumes each
    difference at the first stage that declares the perturbed leaf.

    An `elementwise` stage reads no parameter and maps the last entry of its
    tuple state entry by entry, so that entry's value at one position depends
    only on the entry's input at that position, and it passes the other
    entries on as they are: a local stage whose footprint is the position
    itself. Its call on views of any crop of the state's maps gives the
    crop's outputs bit for bit.

    A `local` stage, one with a window or a stride-1 depth-wise conv, too,
    writes only the last entry of its tuple state. It computes each position
    of that entry from the position's footprint: the `window` that holds it,
    or the k x k neighbourhood of its stride-1 `conv`. It runs no BLAS
    contraction over the map: the depth-wise conv, norms and activations
    work position by position, and the attention products are one matrix
    product per window and head, each of one window's shape. So its call on
    views of any crop of the state that contains a position's footprint
    (whole windows, or the conv's halo) gives that position's bits, bar one
    padded crop one window column wide, which `analysis._run_from` widens,
    and a caller that kept an earlier call's input state and output can
    rerun only the crop that a change reaches. Contractions over channels
    (the 1x1 expand, shrink and Q/K projections, the stem) are never local:
    BLAS blocks such a product by the shape of the whole map, so one
    pixel's output computed on a crop can differ in its last bits from the
    same pixel's on the whole map.
    """

    name: str
    fn: Callable
    lines: Callable[[int, int], list[CostLine]] = lambda h, w: []
    conv: ConvSpec | None = None
    window: int | None = None
    elementwise: bool = False
    leaves: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __call__(self, state, params):
        return self.fn(state, params)

    @property
    def local(self) -> bool:
        return self.window is not None or (self.conv is not None and self.conv.depthwise and self.conv.stride == 1)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        return self.conv.out_hw(h, w) if self.conv else (h, w)


@functools.lru_cache(maxsize=128)
def block_stages(cfg: IRMBConfig, prefix: str) -> tuple[Stage, ...]:
    """The block as its one ordered tuple of named, costed stages; `irmb_forward` folds over it.

    The stages, named `prefix` + pre_norm, expand, norm_e, act, depthwise
    (if the config has the conv) and shrink, come in that order. Pre-norm
    maps the block input x to the state (x, u, u), the stages after it map
    (..., v) to (..., v'), and shrink + residual maps it to the block's
    output: u is the pre-normed input that Q/K read, v the running
    features. EW-MHSA is the pair qk, which replaces u by its projections
    (q, k), and mix, which multiplies their windowed attention into v; the
    stages after it pass q and k on. Each conv and norm is one `Layer`
    record, named `prefix` + expand, q, k, dw, shrink, norm_pre, norm_e or
    norm_dw: a stage calls its layers, declares their leaves as its own and
    lists their cost lines, so it reads parameters only through its mapping
    argument, and exactly the `leaves` it declares. A fold drops each state
    when the next one is made, so norm_e and the activation are two stages:
    as one, the expansion's output would stay alive through the activation.
    Inside mix, by the same rule, no name holds a token copy or the
    attention matrix: the Q/K tokens die once the logits are made, attn and
    the V tokens once their product is, so the merge runs beside the mixed
    tokens only. A taped fold keeps the same nodes either way.

    With `enable_attn`, the qk + mix pair follows the stage that
    `cfg.attn_at` names. With `cfg.inner_skip` at stride 1, the depth-wise
    stage adds its input to its output.

    The tuple is built once per (config, prefix): a config is frozen, so its
    value keys the cache, and the bound keeps a process that makes many
    configs from holding every list.
    """
    cin, cout, mid = cfg.in_channels, cfg.out_channels, cfg.mid
    keep_residual = cfg.stride == 1 and cin == cout
    inner_skip = cfg.inner_skip and cfg.stride == 1
    # with attention as the only operator, expand and shrink are its V/O projections
    mlp_cat = "attention" if cfg.enable_attn and not cfg.enable_conv else "mlp"
    cats = {"q": "attention", "k": "attention", "dw": "dwconv"}
    layer = {name: Layer(prefix + name, spec, cats.get(name, mlp_cat)) for name, spec in cfg.conv_specs().items()}
    for slot, kind, width in (("norm_pre", cfg.pre_norm_kind, cin), ("norm_e", cfg.expand_norm_kind, mid),
                              ("norm_dw", cfg.conv_norm, mid)):
        layer[slot] = Layer(prefix + slot, kind, width=width)

    def pre_norm(x, params):
        u = layer["norm_pre"](x, params)
        return x, u, u

    def expand(state, params):
        *rest, v = state
        return (*rest, layer["expand"](v, params))

    def norm_e(state, params):
        *rest, v = state
        return (*rest, layer["norm_e"](v, params))

    def act(state, params):
        *rest, v = state
        return (*rest, T.activate(v, cfg.expand_act_kind))

    def qk(state, params):
        x, u, v = state
        return x, layer["q"](u, params), layer["k"](u, params), v

    def tokens(t):
        return window_partition(t, cfg.window, cfg.num_heads)[0]

    def mix(state, params):
        x, q, k, v = state
        n, _, h, w = T.val(q).shape
        layout = WindowLayout(h, w, cfg.window)
        # unnamed, the tokens and attn belong to the callees, which drop them once read
        mixed = mix_values(attention_weights(tokens(q), tokens(k), key_padding_bias(layout, n, T.val(q).dtype)),
                           tokens(v))
        return x, q, k, window_merge(mixed, layout, n)

    def depthwise(state, params):
        *rest, v = state
        t = layer["norm_dw"](layer["dw"](v, params), params)
        t = T.activate(t, cfg.conv_act)
        return (*rest, T.residual_add(v, t) if inner_skip else t)

    def shrink(state, params):
        x, *_, v = state
        y = layer["shrink"](v, params)
        return T.residual_add(x, y) if keep_residual else y

    def qk_lines(h, w):
        return [*layer["q"].lines(h, w), *layer["k"].lines(h, w)]

    def attn_lines(h, w):
        layout = WindowLayout(h, w, cfg.window)
        pairs = layout.num_windows * layout.tokens_per_window ** 2  # query-key pairs, one head
        c_v = cin if cfg.attn_at == "pre_norm" else mid  # the values' width before or after the expansion
        return [CostLine(prefix + "attn", "attention", macs=pairs * (cin + c_v), softmax_elems=cfg.num_heads * pairs)]

    def act_lines(h, w):
        return [CostLine(prefix + "act", mlp_cat, act_elems=mid * h * w)] if cfg.expand_act_kind != "none" else []

    def depthwise_lines(h, w):
        ho, wo = layer["dw"].spec.out_hw(h, w)
        act_elems = mid * ho * wo if cfg.conv_act != "none" else 0
        return [*layer["dw"].lines(h, w, act_elems=act_elems, other_adds=mid * ho * wo if inner_skip else 0),
                *layer["norm_dw"].lines(ho, wo)]

    def shrink_lines(h, w):
        return layer["shrink"].lines(h, w, other_adds=cout * h * w if keep_residual else 0)

    def leaves(*names):
        return {leaf: shape for name in names for leaf, shape in layer[name].leaves.items()}

    stages = [
        Stage(prefix + "pre_norm", pre_norm, layer["norm_pre"].lines, leaves=leaves("norm_pre")),
        Stage(prefix + "expand", expand, layer["expand"].lines, leaves=leaves("expand")),
        Stage(prefix + "norm_e", norm_e, layer["norm_e"].lines, leaves=leaves("norm_e")),
        Stage(prefix + "act", act, act_lines, elementwise=True),
        *([Stage(prefix + "depthwise", depthwise, depthwise_lines, layer["dw"].spec, leaves=leaves("dw", "norm_dw"))]
          if cfg.enable_conv else []),
        Stage(prefix + "shrink", shrink, shrink_lines, leaves=leaves("shrink")),
    ]
    if cfg.enable_attn:
        at = 1 + [st.name for st in stages].index(prefix + cfg.attn_at)
        stages[at:at] = [Stage(prefix + "qk", qk, qk_lines, leaves=leaves("q", "k")),
                         Stage(prefix + "mix", mix, attn_lines, window=cfg.window)]
    return tuple(stages)


def run_stages(stages, state, params):
    """Fold `state` through `stages`, each called as stage(state, params)."""
    for stage in stages:
        state = stage(state, params)
    return state


def irmb_forward(x, cfg: IRMBConfig, params):
    """One block: expansion stage -> norm_e -> activation -> depth-wise conv stage -> shrink -> residual.

    A fold of x over `block_stages(cfg, "")`, which also says where EW-MHSA
    runs.
    """
    xv = T.val(x)
    if xv.shape[1] != cfg.in_channels:
        raise ValueError(f"input has {xv.shape[1]} channels, config expects {cfg.in_channels}")
    return run_stages(block_stages(cfg, ""), x, params)


# ---------------------------------------------------------------------------
# order-exchange equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    max_abs_diff: float
    holds: bool
    tolerance: float
    groups: int
    heads: int


def random_block_params(cfg: IRMBConfig, seed: int, precision: str = "f64",
                        prefix: str = "") -> dict[str, np.ndarray]:
    """Generic random weights for every leaf (biases and norms included).

    The leaves are those the block's stages declare (`IRMBConfig.param_shapes`),
    in stage order, as `irmb_init_params` makes them; each is drawn from
    its own named stream, N(0, 0.5^2) except the batchnorm variances, which
    are uniform in [0.5, 1.5).
    """
    rng = Rng(seed)
    out = {}
    for leaf, shape in cfg.param_shapes().items():
        name = prefix + leaf
        if leaf.endswith(".var"):
            out[name] = 0.5 + rng.uniform(name, shape, 0.0, 1.0, precision)
        else:
            out[name] = rng.normal(name, shape, std=0.5, precision=precision)
    return out


def equivalence_check(cfg: IRMBConfig, seed: int, hw: tuple[int, int] | None = None,
                      precision: str = "f64") -> EquivalenceReport:
    """Run the attention stage in both multiplication orders on random data.

    With expand_groups == heads the two orders must agree to rounding; with
    differing groups they generically do not.
    """
    if not cfg.enable_attn:
        raise ValueError("equivalence_check needs an attention-enabled config")
    h, w = hw if hw is not None else (2 * cfg.window, 2 * cfg.window)
    if h < 1 or w < 1:
        raise ValueError(f"equivalence_check needs a non-empty map, got {h}x{w}")
    params = random_block_params(cfg, seed, precision)
    x = Rng(seed ^ 0x5EED).normal("equiv.input", (1, cfg.in_channels, h, w), std=1.0, precision=precision)
    pre = ew_mhsa(x, replace(cfg, attn_at="pre_norm"), params)
    post = ew_mhsa(x, replace(cfg, attn_at="expand"), params)
    diff = float(np.max(np.abs(pre - post)))
    tol = 1e-10 if precision == "f64" else 1e-5
    return EquivalenceReport(diff, diff < tol, tol, cfg.expand_groups, cfg.num_heads)
