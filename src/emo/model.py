"""4-stage EMO assembly: stem, iRMB stages, classifier head.

Resolution plan for a 224 input: stem (3x3, stride 2) -> 112, then the first
block of every stage strides 2, giving 56/28/14/7 at the four stage outputs.
Attention is enabled for every block of the configured stages (3 and 4 by
default), including the strided entry block, where it runs at the input
resolution before the depth-wise downsampling.

`EMOVariantConfig` is the one description of a model, made into weights by
`build_emo`/`load_model` and into one tuple of named, costed stages by
`model_stages`, cached by config value, which the forward folds and
`count_costs` walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import autograd as T
from .irmb import IRMBConfig, Layer, Stage, block_stages, default_heads, init_params, run_stages
from .ops import ConvSpec
from .serialize import ContainerError, load_params, save_params
from .tensor import Rng, as_nchw, dtype_of

STEM_KERNEL = 3
IN_CHANNELS = 3  # RGB: the stem's input width
MIN_INPUT_MULTIPLE = 32


@dataclass(frozen=True)
class EMOVariantConfig:
    """Macro configuration: per-stage depths, widths, expansions, attention.

    `blocks` is (name, stage, config) for every block, in forward order, built
    at construction: every block's `IRMBConfig` checks run there, naming the stage.
    """

    name: str
    depths: tuple[int, int, int, int]
    dims: tuple[int, int, int, int]
    exp_ratios: tuple[float, float, float, float]
    attn_stages: frozenset[int] = frozenset({3, 4})
    windows: tuple[int, int, int, int] = (7, 7, 7, 7)
    num_classes: int = 1000
    head_dim: int = 32

    def __post_init__(self):
        for seq, what in ((self.depths, "depths"), (self.dims, "dims"),
                          (self.exp_ratios, "exp_ratios"), (self.windows, "windows")):
            if not isinstance(seq, tuple) or len(seq) != 4:  # a tuple: the config keys `model_stages`' cache
                raise ValueError(f"{what} must be a tuple of 4 entries, got {seq!r}")
        if any(d < 1 for d in self.depths):  # a stage without blocks would have no widths checked
            raise ValueError(f"depths must be positive, got {self.depths}")
        if self.num_classes < 1 or self.head_dim < 1:
            raise ValueError(f"num_classes and head_dim must be positive, got {self.num_classes} and {self.head_dim}")
        if not isinstance(self.attn_stages, frozenset) or not self.attn_stages <= {1, 2, 3, 4}:
            raise ValueError(f"attn_stages must be a frozenset within 1..4, got {self.attn_stages!r}")
        blocks, cin = [], self.dims[0]  # the stem's output width
        for si in range(4):
            cout = self.dims[si]
            for b in range(self.depths[si]):
                c_in = cin if b == 0 else cout
                try:
                    cfg = IRMBConfig(c_in, cout, self.exp_ratios[si], window=self.windows[si],
                                     stride=2 if b == 0 else 1, enable_attn=(si + 1) in self.attn_stages)
                except ValueError as exc:
                    raise ValueError(f"stage {si + 1}: {exc}") from None
                cfg = replace(cfg, heads=default_heads(c_in, cfg.mid, self.head_dim))
                blocks.append((f"s{si + 1}.b{b}", si + 1, cfg))
            cin = cout
        object.__setattr__(self, "blocks", tuple(blocks))

    def stem_spec(self) -> ConvSpec:
        return ConvSpec(IN_CHANNELS, self.dims[0], kernel=STEM_KERNEL, stride=2, padding=1)

    def head_spec(self) -> ConvSpec:
        """The classifier: a 1x1 conv over the pooled last-stage features."""
        return ConvSpec(self.dims[3], self.num_classes, kernel=1)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Leaf name -> shape of every parameter, in stage order: the leaves `model_stages` declare."""
        return {leaf: shape for st in model_stages(self) for leaf, shape in st.leaves.items()}


PRESETS: dict[str, EMOVariantConfig] = {
    "emo-1m": EMOVariantConfig("emo-1m", (2, 2, 8, 3), (32, 48, 80, 168), (2.0, 2.5, 3.0, 3.5)),
    "emo-2m": EMOVariantConfig("emo-2m", (3, 3, 9, 3), (32, 48, 120, 200), (2.0, 2.5, 3.0, 3.5)),
    "emo-5m": EMOVariantConfig("emo-5m", (3, 3, 9, 3), (48, 72, 160, 288), (2.0, 3.0, 4.0, 4.0)),
    "emo-6m": EMOVariantConfig("emo-6m", (3, 3, 9, 3), (48, 72, 160, 320), (2.0, 3.0, 4.0, 5.0)),
}


def preset(name: str) -> EMOVariantConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}") from None


@dataclass(frozen=True)
class EMOModel:
    """A config and its weights. `seed` is the one `build_emo` drew them from;
    None for a loaded model, whose container stores no seed."""

    cfg: EMOVariantConfig
    precision: str
    seed: int | None
    params: dict[str, np.ndarray] = field(repr=False)


def build_emo(cfg: EMOVariantConfig | str, seed: int = 0, precision: str = "f32") -> EMOModel:
    """Deterministically initialize a model; same seed -> identical weights."""
    if isinstance(cfg, str):
        cfg = preset(cfg)
    params = init_params(cfg.param_shapes(), Rng(seed), precision)
    for arr in params.values():
        arr.setflags(write=False)
    return EMOModel(cfg=cfg, precision=precision, seed=seed, params=params)


def check_resolution(h: int, w: int) -> None:
    if h < MIN_INPUT_MULTIPLE or w < MIN_INPUT_MULTIPLE or h % MIN_INPUT_MULTIPLE or w % MIN_INPUT_MULTIPLE:
        raise ValueError(
            f"input spatial dims must be positive multiples of {MIN_INPUT_MULTIPLE} "
            f"(stem + four stage strides), got {h}x{w}"
        )


def _model_input(model: EMOModel, x):
    """x in the model's precision (a Var as it is), after checking its channels and size."""
    xv = x if isinstance(x, T.Var) else as_nchw(x).astype(dtype_of(model.precision), copy=False)
    n, c, h, w = T.val(xv).shape
    if c != IN_CHANNELS:
        raise ValueError(f"input has {c} channels, model expects {IN_CHANNELS}")
    check_resolution(h, w)
    return xv


@lru_cache(maxsize=128)
def model_stages(cfg: EMOVariantConfig) -> tuple[Stage, ...]:
    """The network as its one ordered tuple of named, costed stages: the stem
    (conv + batchnorm + SiLU), each block's `block_stages` under the block's
    name, the head (pool + classifier). Blocks pass on the bare feature map.
    The tuple is built once per config value, like `block_stages`."""
    stem = Layer("stem.conv", cfg.stem_spec(), "stem")
    stem_bn = Layer("stem.bn", "batchnorm", width=stem.spec.out_channels)
    head = Layer("head", cfg.head_spec(), "head")

    def stem_fn(x, p):
        return T.silu(stem_bn(stem(x, p), p))

    def head_fn(v, p):
        pooled = T.mean_hw(v)  # (N, C4)
        n_items, c4 = T.val(pooled).shape
        return T.reshape(head(T.reshape(pooled, (n_items, c4, 1, 1)), p), (n_items, cfg.num_classes))

    def stem_lines(h, w):
        ho, wo = stem.spec.out_hw(h, w)
        return [*stem.lines(h, w, act_elems=stem.spec.out_channels * ho * wo), *stem_bn.lines(ho, wo)]

    def head_lines(h, w):  # the classifier runs on the pooled 1 x 1 map
        return head.lines(1, 1, other_adds=head.spec.in_channels * h * w)

    stages = [Stage("stem", stem_fn, stem_lines, stem.spec, leaves=stem.leaves | stem_bn.leaves)]
    for name, _stage, bcfg in cfg.blocks:
        stages += block_stages(bcfg, name + ".")
    return (*stages, Stage("head", head_fn, head_lines, leaves=head.leaves))


def emo_forward(model: EMOModel, x):
    """Run the network; returns (N, num_classes) logits. A fold over `model_stages`."""
    return run_stages(model_stages(model.cfg), _model_input(model, x), model.params)


def stages_through(cfg: EMOVariantConfig, stage: int) -> tuple[Stage, ...]:
    """`model_stages` from the stem through the last block of one stage (1-based)."""
    if stage not in (1, 2, 3, 4):
        raise ValueError(f"stage must be 1..4, got {stage}")
    stages = model_stages(cfg)
    return stages[:1 + max(i for i, st in enumerate(stages) if st.name.startswith(f"s{stage}."))]


def stage_features(model: EMOModel, x, stage: int) -> np.ndarray:
    """Feature map at the output of one stage (1-based): a fold over `stages_through` it."""
    return T.val(run_stages(stages_through(model.cfg, stage), _model_input(model, x), model.params))


def save_model(model: EMOModel, path) -> None:
    save_params(path, model.params, model.precision)


def load_model(cfg: EMOVariantConfig | str, path) -> EMOModel:
    """Load weights for `cfg`, validating their names and shapes against `cfg.param_shapes()`.

    The model's `seed` is None: the container does not record which seed, if
    any, drew the weights.
    """
    if isinstance(cfg, str):
        cfg = preset(cfg)
    params, precision = load_params(path)
    expected = cfg.param_shapes()
    got = {k: v.shape for k, v in params.items()}
    if expected != got:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        shapes = sorted(k for k in expected.keys() & got.keys() if expected[k] != got[k])
        raise ContainerError(
            f"container does not match config {cfg.name!r}: "
            f"missing={missing[:4]} extra={extra[:4]} shape-mismatch={shapes[:4]}"
        )
    return EMOModel(cfg=cfg, precision=precision, seed=None, params=params)
