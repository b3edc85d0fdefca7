"""Meta mobile block: expansion MLP, pluggable operator, shrinkage MLP, residual.

One template covers the three classic channel-preserving blocks:

    irb   expansion -> depth-wise conv -> shrinkage     (BN + SiLU bindings)
    ffn   expansion -> identity -> shrinkage            (pre-LN, GeLU)
    mhsa  Q/K from the input, V = expanded features     (pre-LN)

plus the two cascade operators that chain windowed attention with the
depth-wise conv (inner skip included). The block is stride-1 and channel
preserving.

This module is the MMB parameterization of the iRMB path (irmb.py): a
config maps to one `IRMBConfig`, whose `enable_attn`/`enable_conv` say which
operator runs and whose `attn_at`/`inner_skip` place it, and parameters,
forward, costs and gradient checks all run through the iRMB code, so the
leaves carry the iRMB names (`norm_dw.*` for the operator norm). A block's
JSON form is its `MMBConfig` fields, read by `tensor.config_from_json`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .autograd import val
from .irmb import IRMBConfig, irmb_forward, irmb_init_params
from .tensor import Rng, config_from_json

# operator -> the IRMBConfig fields that place it, where not the default; see irmb.block_stages
_PLANS = {
    "identity": {},
    "dwconv": {"inner_skip": False},
    "ewmhsa": {"attn_at": "act"},
    "ewmhsa_dwconv": {"attn_at": "act"},
    "dwconv_ewmhsa": {"attn_at": "depthwise"},
}
OPERATORS = tuple(_PLANS)


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
        if self.operator not in OPERATORS:
            raise ValueError(f"unknown operator {self.operator!r}; expected one of {OPERATORS}")
        if "auto" in (self.pre_norm, self.expand_norm, self.expand_act, self.operator_norm, self.operator_act):
            raise ValueError("unknown norm/activation binding 'auto'")  # an iRMB-only binding
        self._as_irmb(1, 1)  # widths, groups, heads, window, kernel and bindings are checked there

    @property
    def mid_channels(self) -> int:
        return round(self.expansion_ratio * self.channels)

    def _as_irmb(self, h: int, w: int) -> IRMBConfig:
        """The iRMB config that runs this block on an h x w input."""
        attn, conv = "ewmhsa" in self.operator, "dwconv" in self.operator
        return IRMBConfig(
            self.channels, self.channels, self.expansion_ratio,
            kernel=self.kernel if conv else 3,  # only the conv operators read the kernel
            window=self.window if self.window is not None else max(h, w),  # checked, though only attention reads it
            heads=self.heads,
            enable_attn=attn,
            enable_conv=conv,
            expand_groups=self.expand_groups,
            pre_norm=self.pre_norm,
            expand_norm=self.expand_norm,
            expand_act=self.expand_act,
            conv_norm=self.operator_norm,
            conv_act=self.operator_act,
            **_PLANS[self.operator],
        )


def mmb_config_to_dict(cfg: MMBConfig) -> dict:
    """JSON-ready form of a block config: every field, as mmb_config.schema.json states it."""
    return dataclasses.asdict(cfg)


def mmb_config_from_dict(doc: dict) -> MMBConfig:
    """Inverse of mmb_config_to_dict; see `tensor.config_from_json` for what it rejects."""
    return config_from_json(MMBConfig, doc, "block config")


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
# parameters and forward


def mmb_init_params(cfg: MMBConfig, rng: Rng, precision: str = "f32") -> dict[str, np.ndarray]:
    """The iRMB parameters of the block (the window shapes none of them)."""
    return irmb_init_params(cfg._as_irmb(1, 1), rng, precision)


def mmb_forward(x, cfg: MMBConfig, params):
    """Expansion -> operator -> shrinkage, with the residual back to x."""
    h, w = val(x).shape[2:]
    return irmb_forward(x, cfg._as_irmb(h, w), params)
