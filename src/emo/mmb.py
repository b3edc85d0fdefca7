"""Meta mobile block: expansion MLP, pluggable operator, shrinkage MLP, residual.

One template covers the three classic channel-preserving blocks:

    irb   expansion -> depth-wise conv -> shrinkage     (BN + SiLU bindings)
    ffn   expansion -> identity -> shrinkage            (pre-LN, GeLU)
    mhsa  Q/K from the input, V = expanded features     (pre-LN)

plus the two cascade operators that chain windowed attention with the
depth-wise conv (inner skip included). The block is stride-1 and channel
preserving; the richer strided/channel-changing variant lives in irmb.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as T
from .attention import attention_weights, key_padding_bias, mix_values, window_merge, window_partition
from .ops import ConvSpec
from .tensor import Rng, dtype_of

OPERATORS = ("identity", "dwconv", "ewmhsa", "ewmhsa_dwconv", "dwconv_ewmhsa")
_NORMS = ("none", "batchnorm", "layernorm")
_ACTS = ("none", "silu", "gelu")


@dataclass(frozen=True)
class MMBConfig:
    """Parameterization of one meta mobile block (channels in == channels out)."""

    channels: int
    expansion_ratio: float
    operator: str = "identity"
    expand_groups: int = 1
    kernel: int = 3
    window: int | None = None  # None = one window over the whole map
    heads: int = 1
    pre_norm: str = "none"
    expand_norm: str = "none"
    expand_act: str = "none"
    operator_norm: str = "none"
    operator_act: str = "none"

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be positive")
        if self.operator not in OPERATORS:
            raise ValueError(f"unknown operator {self.operator!r}; expected one of {OPERATORS}")
        mid = self.expansion_ratio * self.channels
        if abs(mid - round(mid)) > 1e-6 or round(mid) < 1:
            raise ValueError(
                f"expansion_ratio * channels must be a positive integer, got {self.expansion_ratio} * {self.channels}"
            )
        for g, what in ((self.expand_groups, "expand_groups"), (self.heads, "heads")):
            if self.channels % g or self.mid_channels % g:
                raise ValueError(
                    f"{what}={g} must divide channels={self.channels} and expanded width={self.mid_channels}"
                )
        for slot, allowed in (
            (self.pre_norm, _NORMS),
            (self.expand_norm, _NORMS),
            (self.operator_norm, _NORMS),
            (self.expand_act, _ACTS),
            (self.operator_act, _ACTS),
        ):
            if slot not in allowed:
                raise ValueError(f"unknown norm/activation binding {slot!r}")

    @property
    def mid_channels(self) -> int:
        return round(self.expansion_ratio * self.channels)

    @property
    def uses_attention(self) -> bool:
        return self.operator in ("ewmhsa", "ewmhsa_dwconv", "dwconv_ewmhsa")

    @property
    def uses_conv(self) -> bool:
        return self.operator in ("dwconv", "ewmhsa_dwconv", "dwconv_ewmhsa")


_CONFIG_FIELDS = (
    "channels", "expansion_ratio", "operator", "expand_groups", "kernel",
    "window", "heads", "pre_norm", "expand_norm", "expand_act",
    "operator_norm", "operator_act",
)


def mmb_config_to_dict(cfg: MMBConfig) -> dict:
    """JSON-ready form of a block config (strict field set)."""
    return {name: getattr(cfg, name) for name in _CONFIG_FIELDS}


def mmb_config_from_dict(doc: dict) -> MMBConfig:
    """Inverse of mmb_config_to_dict; unknown fields are rejected."""
    if not isinstance(doc, dict):
        raise ValueError("block config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"unknown block config fields: {unknown}")
    missing = [k for k in ("channels", "expansion_ratio") if k not in doc]
    if missing:
        raise ValueError(f"missing block config fields: {missing}")
    return MMBConfig(**doc)


def mmb_instantiate(preset: str, channels: int, expansion_ratio: float | None = None, *,
                    kernel: int = 3, window: int | None = None, heads: int = 1) -> MMBConfig:
    """Build the IRB / FFN / MHSA instantiation of the meta block."""
    if preset == "irb":
        lam = 4.0 if expansion_ratio is None else expansion_ratio
        return MMBConfig(
            channels, lam, operator="dwconv", kernel=kernel,
            expand_norm="batchnorm", expand_act="silu",
            operator_norm="batchnorm", operator_act="silu",
        )
    if preset == "ffn":
        lam = 4.0 if expansion_ratio is None else expansion_ratio
        return MMBConfig(channels, lam, operator="identity", pre_norm="layernorm", expand_act="gelu")
    if preset == "mhsa":
        if expansion_ratio not in (None, 1, 1.0):
            raise ValueError("the mhsa preset is channel-consistent: expansion_ratio is fixed to 1")
        return MMBConfig(channels, 1.0, operator="ewmhsa", pre_norm="layernorm", window=window, heads=heads)
    raise ValueError(f"unknown preset {preset!r}; expected irb, ffn, or mhsa")


# ---------------------------------------------------------------------------
# parameters


def _conv_specs(cfg: MMBConfig) -> dict[str, ConvSpec]:
    c, m = cfg.channels, cfg.mid_channels
    specs = {
        "expand": ConvSpec(c, m, kernel=1, groups=cfg.expand_groups),
        "shrink": ConvSpec(m, c, kernel=1),
    }
    if cfg.uses_attention:
        specs["q"] = ConvSpec(c, c, kernel=1)
        specs["k"] = ConvSpec(c, c, kernel=1)
    if cfg.uses_conv:
        specs["dw"] = ConvSpec(m, m, kernel=cfg.kernel, padding=(cfg.kernel - 1) // 2, groups=m)
    return specs


def mmb_init_params(cfg: MMBConfig, rng: Rng, prefix: str = "", precision: str = "f32") -> dict[str, np.ndarray]:
    dt = dtype_of(precision)
    params: dict[str, np.ndarray] = {}

    def put(name, arr):
        params[prefix + name] = np.ascontiguousarray(arr.astype(dt, copy=False))

    for name, spec in _conv_specs(cfg).items():
        fan_in = (spec.in_channels // spec.groups) * spec.kernel ** 2
        put(f"{name}.w", rng.normal(prefix + f"{name}.w", spec.weight_shape(), std=fan_in ** -0.5, precision=precision))
        put(f"{name}.b", np.zeros(spec.out_channels))
    for slot, width in (("pre", cfg.channels), ("e", cfg.mid_channels), ("op", cfg.mid_channels)):
        kind = {"pre": cfg.pre_norm, "e": cfg.expand_norm, "op": cfg.operator_norm}[slot]
        if kind == "none":
            continue
        put(f"norm_{slot}.g", np.ones(width))
        put(f"norm_{slot}.b", np.zeros(width))
        if kind == "batchnorm":
            put(f"norm_{slot}.mean", np.zeros(width))
            put(f"norm_{slot}.var", np.ones(width))
    return params


def _norm(x, kind, params, prefix, name):
    if kind == "none":
        return x
    g, b = params[prefix + f"{name}.g"], params[prefix + f"{name}.b"]
    if kind == "layernorm":
        return T.layernorm_channels(x, g, b)
    return T.batchnorm_inference(x, g, b, params[prefix + f"{name}.mean"], params[prefix + f"{name}.var"])


# ---------------------------------------------------------------------------
# forward


def _attention_mix(u, xe, cfg: MMBConfig, params, prefix):
    """Multiply the attention matrix (from unexpanded u) into expanded xe."""
    n, _, h, wd = T.val(u).shape
    window = cfg.window if cfg.window is not None else max(h, wd)
    specs = _conv_specs(cfg)
    q = T.conv2d(u, params[prefix + "q.w"], specs["q"], params[prefix + "q.b"])
    k = T.conv2d(u, params[prefix + "k.w"], specs["k"], params[prefix + "k.b"])
    qt, layout = window_partition(q, window)
    kt, _ = window_partition(k, window)
    attn = attention_weights(qt, kt, cfg.heads, key_padding_bias(layout, n, T.val(u).dtype))
    vt, _ = window_partition(xe, window)
    return window_merge(mix_values(attn, vt, cfg.heads), layout, n)


def _dw_with_skip(xe, cfg: MMBConfig, params, prefix):
    spec = _conv_specs(cfg)["dw"]
    t = T.conv2d(xe, params[prefix + "dw.w"], spec, params[prefix + "dw.b"])
    t = _norm(t, cfg.operator_norm, params, prefix, "norm_op")
    t = T.activate(t, cfg.operator_act)
    return T.residual_add(xe, t)


def mmb_forward(x, cfg: MMBConfig, params, prefix: str = ""):
    """Expansion -> operator -> shrinkage, with the residual back to x."""
    if T.val(x).shape[1] != cfg.channels:
        raise ValueError(f"input has {T.val(x).shape[1]} channels, config expects {cfg.channels}")
    specs = _conv_specs(cfg)
    u = _norm(x, cfg.pre_norm, params, prefix, "norm_pre")
    xe = T.conv2d(u, params[prefix + "expand.w"], specs["expand"], params[prefix + "expand.b"])
    xe = _norm(xe, cfg.expand_norm, params, prefix, "norm_e")
    xe = T.activate(xe, cfg.expand_act)

    if cfg.operator == "identity":
        xf = xe
    elif cfg.operator == "dwconv":
        t = T.conv2d(xe, params[prefix + "dw.w"], specs["dw"], params[prefix + "dw.b"])
        t = _norm(t, cfg.operator_norm, params, prefix, "norm_op")
        xf = T.activate(t, cfg.operator_act)
    elif cfg.operator == "ewmhsa":
        xf = _attention_mix(u, xe, cfg, params, prefix)
    elif cfg.operator == "ewmhsa_dwconv":
        xf = _dw_with_skip(_attention_mix(u, xe, cfg, params, prefix), cfg, params, prefix)
    elif cfg.operator == "dwconv_ewmhsa":
        xf = _attention_mix(u, _dw_with_skip(xe, cfg, params, prefix), cfg, params, prefix)
    else:  # pragma: no cover - guarded by the config
        raise AssertionError(cfg.operator)

    xs = T.conv2d(xf, params[prefix + "shrink.w"], specs["shrink"], params[prefix + "shrink.b"])
    return T.residual_add(x, xs)
