"""Cost accounting, closed-form oracles, influence masks, path lengths,
diagonal similarity, and gradient checking.

The static counter (`count_costs`) sums the cost lines of the stage list a
forward folds over (`model.model_stages`, `irmb.block_stages`), so a trace
under `ops.cost_meter()` reproduces the static numbers exactly: MACs count the
contractions of conv/matmul calls, softmax is itemized per attention-matrix
element (3 flops each), and bias adds / normalization / activation elements
are reported separately so any FLOP convention can be reconstructed. A
`CostReport` is one record with the meter's fields (a `CostLine` named after
its target), so `rep.macs` are contraction MACs, like a meter's. The paper's
MACs, flops / 2, are the `macs` of its JSON form and of its rollups.
`contraction_macs` is the benchmark's name for `rep.macs`, kept until the
benchmark reads `macs`.

The structural analyses fold over the same stages. One reach rule serves
influence masks, path lengths and gradient checking's crops: a box of the map
snaps out to each stage's attention `window` grid and grows by each spatial
`conv`'s radius (`_reach`). Each starts from one box (a pixel, a corner, the
bounding box of a change), and a window or a conv takes a box to a box, so
the fold is exact and costs a few integer operations per stage, whatever the
map size. `conv_receptive_radius` folds the convs of `model.stages_through` a
stage.
"""

from __future__ import annotations

import itertools
import math
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from . import autograd as ag
from .irmb import IRMBConfig, Stage, block_stages, random_block_params, run_stages
from .mmb import MMBConfig
from .model import IN_CHANNELS, EMOModel, EMOVariantConfig, check_resolution, model_stages, stages_through
from .ops import ConvSpec, CostLine, CostMeter
from .tensor import Rng

CATEGORIES = ("stem", "mlp", "attention", "dwconv", "norm", "head")
_FD_STEP = 1e-5  # the central-difference step: check_primitives', and grad_check's default
_PRIMITIVE_COORDS = 60  # the coordinates check_primitives draws from each leaf


# ---------------------------------------------------------------------------
# cost report


def _paper_costs(params: int, flops: int) -> dict[str, float]:
    """params, MACs and FLOPs in the paper's convention: its MACs are flops / 2."""
    return {"params": params, "macs": flops / 2, "flops": flops}


@dataclass(kw_only=True)
class CostReport(CostLine):
    """A target's total cost line (named after the target), its resolution and the lines it sums.

    Its `macs` are contraction MACs, as on a meter. The `macs` of `as_dict`,
    `by_category` and `by_block` are the paper's, flops / 2, which count each
    softmax element as 1.5.
    """

    resolution: int
    lines: list[CostLine] = field(default_factory=list)

    contraction_macs = property(lambda self: self.macs)  # perfbench's name for `macs`

    def _rollup(self, key, keys=()) -> dict[str, dict[str, float]]:
        """`_paper_costs` of the lines grouped by key(line), starting with `keys` at zero."""
        sums = {k: [0, 0] for k in keys}
        for ln in self.lines:
            rec = sums.setdefault(key(ln), [0, 0])
            rec[0] += ln.params
            rec[1] += ln.flops
        return {k: _paper_costs(*rec) for k, rec in sums.items()}

    def by_category(self) -> dict[str, dict[str, float]]:
        cats = self._rollup(lambda ln: ln.category, CATEGORIES)
        return {cat: cats[cat] for cat in CATEGORIES}

    def fractions(self) -> dict[str, dict[str, float]]:
        cats = self.by_category()
        tp, tm = self.params, self.flops / 2
        return {
            cat: {
                "params": (v["params"] / tp) if tp else 0.0,
                "macs": (v["macs"] / tm) if tm else 0.0,
            }
            for cat, v in cats.items()
        }

    def by_block(self) -> dict[str, dict[str, float]]:
        return self._rollup(lambda ln: ln.name.rsplit(".", 1)[0])

    def as_dict(self) -> dict:
        counts = {f.name: getattr(self, f.name) for f in fields(CostMeter) if f.name != "macs"}
        return {
            "target": self.name,
            "resolution": self.resolution,
            "totals": _paper_costs(self.params, self.flops) | counts,
            "by_category": self.by_category(),
            "fractions": self.fractions(),
            "by_block": self.by_block(),
        }

    def as_text(self) -> str:
        rows = [f"{self.name} @ {self.resolution}"]
        rows.append(f"{'category':<10} {'params':>12} {'MACs':>16} {'FLOPs (2x)':>16} {'%P':>7} {'%M':>7}")
        fr = self.fractions()
        for cat, rec in self.by_category().items():
            if rec["params"] == 0 and rec["flops"] == 0:
                continue
            rows.append(
                f"{cat:<10} {rec['params']:>12,} {rec['macs']:>16,.1f} {rec['flops']:>16,} "
                f"{fr[cat]['params'] * 100:>6.2f}% {fr[cat]['macs'] * 100:>6.2f}%"
            )
        rows.append(f"{'total':<10} {self.params:>12,} {self.flops / 2:>16,.1f} {self.flops:>16,}")
        return "\n".join(rows)


# ---------------------------------------------------------------------------
# static counting


def _block_of(target, h: int, w: int) -> tuple[str, IRMBConfig]:
    """(report name, iRMB config) of an IRMB or MMB target on an h x w input."""
    if isinstance(target, IRMBConfig):
        return "irmb", target
    return f"mmb[{target.operator}]", target._as_irmb(h, w)


def count_costs(target, resolution: int = 224) -> CostReport:
    """Exact parameter and work counts for a model, block, or bare conv.

    A model or block sums the lines of its stage list, field by field. Work is counted for one batch item.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if isinstance(target, EMOModel):
        target = target.cfg
    if isinstance(target, ConvSpec):
        name = "conv"
        lines = [target.cost_line(name, "dwconv" if target.depthwise else "mlp", resolution, resolution)]
    else:
        if isinstance(target, EMOVariantConfig):
            check_resolution(resolution, resolution)
            name, stages = target.name, model_stages(target)
        elif isinstance(target, (IRMBConfig, MMBConfig)):
            name, cfg = _block_of(target, resolution, resolution)
            stages = block_stages(cfg, "block.")
        else:
            raise TypeError(f"cannot count costs of {type(target).__name__}")
        lines, h, w = [], resolution, resolution
        for stage in stages:
            lines.extend(stage.lines(h, w))
            h, w = stage.out_hw(h, w)
    counted = ("params", *(f.name for f in fields(CostMeter)))
    totals = {f: sum(getattr(ln, f) for ln in lines) for f in counted}
    return CostReport(name, "total", resolution=resolution, lines=lines, **totals)


# ---------------------------------------------------------------------------
# closed-form module costs


def formula_costs(module_kind: str, C: int, W: int, w: int | None = None,
                  k: int | None = None, G: int = 1) -> dict:
    """Literal closed-form #Params / FLOPs / max-path-length of one module.

    FLOPs follow the 2x-MAC convention (plus 3 flops per softmax element);
    `macs` is the same value halved.
    """
    if C < 1 or W < 1 or G < 1:
        raise ValueError("arguments must be positive")
    L = W * W
    if module_kind == "mhsa":
        params = 4 * (C + 1) * C
        flops = 8 * C * C * L + 4 * C * L * L + 3 * L * L
        mpl = "O(1)"
    elif module_kind == "w-mhsa":
        if w is None:
            raise ValueError("w-mhsa needs the window size w")
        l = w * w
        params = 4 * (C + 1) * C
        flops = 8 * C * C * L + 4 * C * L * l + 3 * L * l
        mpl = "O(Inf)"
    elif module_kind == "conv":
        if k is None:
            raise ValueError("conv needs the kernel size k")
        params = (C * k * k // G + 1) * C if (C * k * k) % G == 0 else ((C * k * k) / G + 1) * C
        flops = (2 * C * k * k // G) * L * C if (2 * C * k * k) % G == 0 else (2 * C * k * k / G) * L * C
        mpl = f"O(2W/(k-1))"
    elif module_kind == "dw-conv":
        if k is None:
            raise ValueError("dw-conv needs the kernel size k")
        params = (k * k + 1) * C
        flops = 2 * k * k * L * C
        mpl = "O(2W/(k-1))"
    else:
        raise ValueError(f"unknown module kind {module_kind!r}")
    return {"params": params, "flops": flops, "macs": flops / 2, "mpl": mpl}


# ---------------------------------------------------------------------------
# influence masks and path length


@dataclass(frozen=True)
class InfluenceMask:
    source: tuple[int, int]
    mask: np.ndarray
    blocks_applied: int

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def _reach(box, stages, h: int, w: int) -> tuple[int, int, int, int]:
    """Fold the box (y0, y1, x0, x1), rows y0:y1 and columns x0:x1 of an
    h x w map, through `stages` (stride 1), in the order given: each
    `window` snaps it out to the attention windows that hold it, tiled from
    the top-left as the forward pads, and each `conv` grows it by the conv's
    radius. Both clip to the map. What a box reaches through a window or a
    conv is a box, so this is the exact reach, not a bound on it."""
    y0, y1, x0, x1 = box
    for stage in stages:
        if win := stage.window:
            y0, y1, x0, x1 = y0 - y0 % win, min(y1 + -y1 % win, h), x0 - x0 % win, min(x1 + -x1 % win, w)
        if stage.conv:  # the kernel is odd: a square of side kernel is a radius of (kernel - 1) // 2
            r = (stage.conv.kernel - 1) // 2
            y0, y1, x0, x1 = max(y0 - r, 0), min(y1 + r, h), max(x0 - r, 0), min(x1 + r, w)
    return y0, y1, x0, x1


def _stack_stages(stack) -> list[Stage]:
    """The stages of a stack of blocks that keep one map: each block's under the name `blk<i>.`."""
    if not stack:
        raise ValueError("stack must contain at least one block")
    width = stack[0].in_channels
    for cfg in stack:
        if cfg.stride != 1:
            raise ValueError("structural analyses are defined for stride-1 blocks")
        if cfg.in_channels != width or cfg.out_channels != width:
            raise ValueError("structural analyses need channel-preserving blocks of one width")
    return [st for i, cfg in enumerate(stack) for st in block_stages(cfg, f"blk{i}.")]


def influence_mask(stack, source: tuple[int, int], resolution: int,
                   mode: str = "structural", seed: int = 0) -> InfluenceMask:
    """Which input pixels can affect the output pixel `source` through `stack`.

    `stack` is a sequence of stride-1 IRMBConfigs of one width. Structural
    mode folds the source pixel's box back through the stack's stages
    (`_reach`) and marks that box; vjp mode differentiates a randomly-weighted
    instantiation of the same stages and marks nonzero input gradients. The
    two must agree.
    """
    stack = list(stack)
    stages = _stack_stages(stack)
    r, c = source
    if not (0 <= r < resolution and 0 <= c < resolution):
        raise ValueError(f"source {source} outside a {resolution}x{resolution} map")

    if mode == "structural":
        y0, y1, x0, x1 = _reach((r, r + 1, c, c + 1), reversed(stages), resolution, resolution)
        mask = np.zeros((resolution, resolution), dtype=bool)
        mask[y0:y1, x0:x1] = True
        return InfluenceMask((r, c), mask, len(stack))
    if mode == "vjp":
        x = ag.Var(Rng(seed ^ 0xA11CE).normal("influence.input",
                                              (1, stack[0].in_channels, resolution, resolution),
                                              precision="f64"))
        params = ChainMap(*(random_block_params(cfg, seed + i, "f64", f"blk{i}.") for i, cfg in enumerate(stack)))
        v = run_stages(stages, x, params)
        cot = np.zeros(v.value.shape)
        cot[0, :, r, c] = 1.0
        grads = ag.backward(v, cot)
        gx = np.abs(ag.grad_of(grads, x)).sum(axis=(0, 1))
        return InfluenceMask((r, c), gx > 0.0, len(stack))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class MPLReport:
    kind: str
    resolution: int
    empirical: int | None          # None = unreachable
    closed_form: int | None        # None for the O(Inf) cases: pure windows, a 1x1 conv
    closed_form_expr: str

    @property
    def reachable(self) -> bool:
        return self.empirical is not None


def max_path_length(cfg: IRMBConfig, resolution: int) -> MPLReport:
    """Blocks needed for corner-to-corner influence, plus the closed form.

    That path needs two corners, so a resolution below 2 raises ValueError.
    The simulation folds the corner (0, 0)'s box through the block's stages
    (`_reach`: partitioned windows, conv radius), one block per fold, until
    the box holds the far corner or stops growing (unreachable). The closed
    forms are order-of-growth ceilings; the partitioned-window cascade can
    exceed its quoted ceiling, which the report makes visible rather than
    hiding.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2 for a corner-to-corner path, got {resolution}")
    stages = _stack_stages([cfg])
    W = resolution
    k, w = cfg.kernel, cfg.window
    if cfg.enable_attn and cfg.enable_conv:
        kind = "cascade"
        closed = math.ceil(2 * W / (k - 1 + 2 * w))
        expr = "ceil(2W/(k-1+2w))"
    elif cfg.enable_conv:
        kind = "conv"
        if k > 1:
            closed, expr = math.ceil(2 * W / (k - 1)), "ceil(2W/(k-1))"
        else:  # a 1x1 conv never moves information
            closed, expr = None, "O(Inf)"
    elif cfg.enable_attn:
        kind = "attn"
        closed = 1 if w >= W else None
        expr = "O(1) if w >= W else O(Inf)"
    else:
        raise ValueError("block with both switches off never moves information spatially")

    empirical, box = None, (0, 1, 0, 1)
    for n in itertools.count(1):
        new = _reach(box, stages, W, W)
        if new[1] == new[3] == W:  # the box holds the far corner (W - 1, W - 1)
            empirical = n
            break
        if new == box:
            break
        box = new
    return MPLReport(kind, W, empirical, closed, expr)


# ---------------------------------------------------------------------------
# diagonal similarity


def diag_similarity_of_features(features: np.ndarray) -> np.ndarray:
    """Cosine similarity between the (0,0) diagonal feature and each (i,i)."""
    if features.ndim != 4:
        raise ValueError("expected (N, C, H, W) features")
    f = features[0]
    n = min(f.shape[1], f.shape[2])
    ref = f[:, 0, 0].astype(np.float64)
    nref = np.linalg.norm(ref)
    sims = np.empty(n)
    sims[0] = 1.0  # self-similarity by definition
    for i in range(1, n):
        v = f[:, i, i].astype(np.float64)
        nv = np.linalg.norm(v)
        sims[i] = float(ref @ v / (nref * nv)) if nref > 0 and nv > 0 else 0.0
    return sims


def diag_similarity(model: EMOModel, stage: int, x) -> np.ndarray:
    """Diagonal cosine-similarity profile of one stage's output features."""
    from .model import stage_features

    return diag_similarity_of_features(stage_features(model, x, stage))


def conv_receptive_radius(cfg: EMOVariantConfig, stage: int) -> dict:
    """Conv-path receptive field at a stage output (stage 1..4), in input and stage pixels."""
    radius, jump = 0, 1
    for st in stages_through(cfg, stage):
        if st.conv:
            radius += (st.conv.kernel - 1) // 2 * jump
            jump *= st.conv.stride
    return {
        "radius_input_px": radius,
        "stage_stride": jump,
        # first diagonal distance (in stage pixels) with disjoint receptive fields
        "disjoint_distance": math.floor(2 * radius / jump) + 1,
    }


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    """The worst relative error over the checked coordinates, and where it was.

    `worst_leaf`, `worst_index` and `worst_stage` name the worst coordinate:
    its leaf, its flat index in that leaf, and the stage that first reads the
    leaf (e.g. "s3.b1.expand" in a model; None if no stage reads it). All
    three are None when no coordinate was checked.
    """

    target: str
    max_rel_err: float
    coords_checked: int
    worst_leaf: str | None
    worst_index: int | None
    worst_stage: str | None


def _tape_gradients(stages, leaves: dict, rng: Rng, cot_name: str):
    """The analytic pass of `_tape_rel_err`: (leaf gradients, cotangent).

    Every leaf becomes a Var, every stage runs on them, and `backward` runs
    with a cotangent drawn from the named stream `cot_name` and scaled by
    1/sqrt(its size). A batchnorm buffer, which the stages read as a
    constant, gets zeros. The tape dies on return, so it is not held while
    the perturbed forwards run.
    """
    vars_ = {k: ag.Var(v) for k, v in leaves.items()}
    y = run_stages(stages, None, vars_)
    cot = rng.normal(cot_name, y.shape, precision="f64")
    cot = cot / math.sqrt(cot.size)
    grads = ag.backward(y, cot)
    return {k: ag.grad_of(grads, v) for k, v in vars_.items()}, cot


class _Reads(Mapping):
    """Leaves, read-only, noting for each key every stage that reads it by [] or get.

    `stage` is the index of the stage running; `readers` maps each key read
    so far to the indices of the stages that read it, in order. A membership
    test is not a read.
    """

    def __init__(self, leaves: dict):
        self.leaves, self.stage, self.readers = leaves, 0, {}

    def __getitem__(self, key):
        value = self.leaves[key]
        seen = self.readers.setdefault(key, [])
        if not seen or seen[-1] != self.stage:
            seen.append(self.stage)
        return value

    def __contains__(self, key):
        return key in self.leaves

    def __iter__(self):
        return iter(self.leaves)

    def __len__(self):
        return len(self.leaves)


def _plain_pass(stages, leaves: dict) -> tuple[list, dict]:
    """(states, readers) of one plain (untaped) fold of `stages` on `leaves`.

    states[i] is stage i's input state, from None, and states[-1] the
    output; readers is what `_Reads` logged.
    """
    reads, states = _Reads(leaves), [None]
    for i, stage in enumerate(stages):
        reads.stage = i
        states.append(stage(states[-1], reads))
    return states, reads.readers


def _rerun_elementwise(stage, state, leafs, base_in, base_out):
    """stage(state, leafs) for an elementwise stage that mapped base_in to base_out before.

    Only the entries of the state's last entry whose bits differ from
    base_in are run through the stage, gathered; a copy of base_out, in
    base_out's memory order, takes their results. Comparing bits rather than
    values counts a flipped signed zero and a NaN with new bits as changed.
    When more than half the entries changed, the copy and the gather cost
    more than they save, and the stage just runs. Either way the result is
    bit-identical to stage(state, leafs), and neither base array is written.
    """
    *rest, v = state
    uint = f"u{v.itemsize}"
    changed = v.view(uint) != base_in.view(uint)
    if 2 * np.count_nonzero(changed) > v.size:
        return stage(state, leafs)
    out = base_out.copy(order="K")
    out[changed] = stage((*rest, v[changed]), leafs)[-1]
    return (*rest, out)


def _crop_boxes(stage, changed: np.ndarray):
    """((y0, y1, x0, x1), (cy0, cy1, cx0, cx1)), or None if no position changed.

    The first box holds the outputs of `stage` that the True positions of
    the map `changed` reach: the `_reach` of their bounding box through the
    stage. The second is that box plus the conv's halo, clipped to the map:
    the crop of the input that computes it.

    A padded crop one window column wide tiles into a view, where a map of
    several window columns tiles into a copy, and on a view the value
    product can round differently. So on such a map, such a box takes the
    next window column, or at the right edge the previous one.
    """
    ys, xs = np.nonzero(changed)
    if not ys.size:
        return None
    (h, w), win = changed.shape, stage.window
    y0, y1, x0, x1 = _reach((ys[0], ys[-1] + 1, xs.min(), xs.max() + 1), [stage], h, w)
    if win and x1 - x0 <= win < w and ((y1 - y0) % win or (x1 - x0) % win):
        x0, x1 = (x0 - win, x1) if x1 == w else (x0, min(x1 + win, w))
    halo = (stage.conv.kernel - 1) // 2 if stage.conv else 0
    return (y0, y1, x0, x1), (max(y0 - halo, 0), min(y1 + halo, h), max(x0 - halo, 0), min(x1 + halo, w))


def _rerun_local(stage, state, leafs, base_in, base_out):
    """stage(state, leafs) for a local stage that mapped the state base_in to base_out (its last entry) before.

    Every array of the state is compared by bit pattern with base_in's. The
    bounding box of the positions changed in any of them, snapped to the
    stage's windows or grown by its conv radius (`_crop_boxes`), holds every
    output that can change. The stage runs on views of that box plus the
    conv's halo, and a copy of base_out, in base_out's memory order, takes
    the box's results. When that crop covers more than half the map the
    stage just runs; the last entry, which a change reaches most widely, is
    compared first, so that such a change needs no further comparing. Either
    way the result is bit-identical to stage(state, leafs), and neither base
    is written.
    """
    *rest, _ = state
    h, w = base_out.shape[-2:]
    changed, boxes = np.zeros((h, w), dtype=bool), None
    for a, b in zip(reversed(state), reversed(base_in)):
        if a is not b:
            uint = f"u{a.itemsize}"
            changed |= (a.view(uint) != b.view(uint)).any(axis=(0, 1))
            boxes = _crop_boxes(stage, changed)
            if boxes:
                cy0, cy1, cx0, cx1 = boxes[1]
                if 2 * (cy1 - cy0) * (cx1 - cx0) > h * w:
                    return stage(state, leafs)
    if boxes is None:
        return (*rest, base_out.copy(order="K"))
    (y0, y1, x0, x1), (cy0, cy1, cx0, cx1) = boxes
    sub = stage(tuple(a[..., cy0:cy1, cx0:cx1] for a in state), leafs)[-1]
    out = base_out.copy(order="K")
    out[..., y0:y1, x0:x1] = sub[..., y0 - cy0 : y1 - cy0, x0 - cx0 : x1 - cx0]
    return (*rest, out)


def _run_from(stages, i: int, states: list, leafs, readers):
    """Fold states[i] through stages[i:] like `run_stages`, where `states`
    is what a plain pass gave each stage (`_plain_pass`) and `readers` the
    stages that read the perturbed leaf. A reader runs whole: its parameters
    changed everywhere. Every other elementwise or local stage reruns only
    where its input differs from its plain-pass input."""
    state = states[i]
    for j in range(i, len(stages)):
        stage = stages[j]
        if j in readers or not (stage.elementwise or stage.local):
            state = stage(state, leafs)
        elif stage.local:
            state = _rerun_local(stage, state, leafs, states[j], states[j + 1][-1])
        else:
            state = _rerun_elementwise(stage, state, leafs, states[j][-1], states[j + 1][-1])
    return state


def _tape_rel_err(stages, leaves: dict, rng: Rng, cot_name: str, coords, step: float):
    """(worst relative error of the tape gradients of `stages` against central differences, where).

    `stages` is a list of `Stage` records, folded from the state None to the
    output, that read every parameter from the one mapping `leaves`;
    `_tape_gradients` gives the analytic side. Each (key, flat index) in
    `coords` is then moved by +-step in a copy of its leaf, and each
    difference resumes at the first stage that reads the key (a key that no
    stage reads, at the output), from the list of states of one plain pass
    (`_plain_pass`): the stages before it would recompute that state
    unchanged. On the way, an elementwise stage (the blocks' activations)
    recomputes only the entries whose input differs in its bits from that
    pass's (`_rerun_elementwise`), and a local stage (a windowed mix, a
    stride-1 depth-wise stage) that does not read the key only the crop of
    windows, or of conv footprints, that such entries reach (`_rerun_local`).
    The contractions over channels rerun whole, since on a crop their bits
    can differ. So every difference is bit-identical to one over the whole
    forward. The states come from that plain pass, never from the tape
    being checked, and no difference writes into them.
    The denominator is max(|analytic|, |numeric|, 1e-4 * the largest
    |analytic| entry), which keeps finite-difference roundoff on near-zero
    coordinates from dominating. "Where" is (key, flat index, name of the
    stage that first reads the key, or None) of the first worst coordinate,
    or None for no coordinates.
    """
    analytic, cot = _tape_gradients(stages, leaves, rng, cot_name)
    states, readers = _plain_pass(stages, leaves)

    def loss(key, leafs):
        reads = readers.get(key, [len(stages)])
        return float((ag.val(_run_from(stages, reads[0], states, leafs, reads)) * cot).sum())

    gmax = max(float(np.max(np.abs(a))) if a.size else 0.0 for a in analytic.values())
    floor = 1e-4 * max(gmax, 1e-8)
    worst, where = 0.0, None
    for key, idx in coords:
        pert = dict(leaves)
        pert[key] = np.array(leaves[key])
        flat = pert[key].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + step
        up = loss(key, pert)
        flat[idx] = orig - step
        down = loss(key, pert)
        fd = (up - down) / (2 * step)
        an = float(analytic[key].reshape(-1)[idx])
        err = abs(an - fd) / max(abs(an), abs(fd), floor)
        if where is None or err > worst or math.isnan(err) > math.isnan(worst):  # a NaN error is the worst
            reader = stages[readers[key][0]].name if key in readers else None
            worst, where = err, (key, int(idx), reader)
    return worst, where


def check_primitives(seed: int = 0) -> dict[str, float]:
    """Finite-difference check of every primitive's VJP, through its autograd
    wrapper on the tape; name -> max rel err."""
    rng = Rng(seed)
    results: dict[str, float] = {}

    def normal(name, shape, std=1.0):
        return rng.normal(f"prim.{name}", shape, std=std, precision="f64")

    def fd_check(name, fwd, leaves):
        picker = rng.stream(f"prim.{name}.coords")
        coords = [(k, flat) for k, a in leaves.items()
                  for flat in picker.choice(a.size, size=min(_PRIMITIVE_COORDS, a.size), replace=False)]
        stages = [Stage(name, lambda _, v: fwd(v))]
        results[name] = _tape_rel_err(stages, leaves, rng, f"prim.{name}.cot", coords, _FD_STEP)[0]

    # conv2d: plain, grouped, strided+padded, depth-wise
    for tag, spec in (
        ("conv2d", ConvSpec(4, 6, kernel=3, padding=1, bias=True)),
        ("conv2d_grouped", ConvSpec(4, 8, kernel=3, padding=1, groups=2, bias=True)),
        ("conv2d_strided", ConvSpec(3, 5, kernel=3, stride=2, padding=1, bias=False)),
        ("conv2d_depthwise", ConvSpec(6, 6, kernel=5, padding=2, groups=6, bias=True)),
    ):
        leaves = {"x": normal(f"{tag}.x", (2, spec.in_channels, 6, 6)),
                  "w": normal(f"{tag}.w", spec.weight_shape(), 0.5)}
        if spec.bias:
            leaves["b"] = normal(f"{tag}.b", (spec.out_channels,), 0.5)
        fd_check(tag, lambda v, s=spec: ag.conv2d(v["x"], v["w"], s, v.get("b")), leaves)

    mm = lambda v: ag.matmul(v["a"], v["b"])
    fd_check("matmul", mm, {"a": normal("matmul.a", (3, 4)), "b": normal("matmul.b", (4, 2))})
    fd_check("matmul_batched", mm,
             {"a": normal("matmul_b.a", (2, 3, 4, 5)), "b": normal("matmul_b.b", (2, 3, 5, 4))})
    fd_check("softmax_lastdim", lambda v: ag.softmax_lastdim(v["x"]), {"x": normal("softmax.x", (3, 4, 7))})

    norm = {"x": normal("bn.x", (2, 5, 4, 4)), "g": normal("bn.g", (5,), 0.5), "b": normal("bn.b", (5,), 0.5)}
    mean = normal("bn.mean", (5,), 0.3)
    var = 0.5 + rng.uniform("prim.bn.var", (5,), precision="f64")
    fd_check("batchnorm_inference", lambda v: ag.batchnorm_inference(v["x"], v["g"], v["b"], mean, var), norm)
    fd_check("layernorm_channels", lambda v: ag.layernorm_channels(v["x"], v["g"], v["b"]), norm)

    act = {"x": normal("act.x", (3, 4, 5, 5))}
    fd_check("silu", lambda v: ag.silu(v["x"]), act)
    fd_check("gelu", lambda v: ag.gelu(v["x"]), act)
    return results


def _is_buffer(name: str) -> bool:
    """Whether a leaf is a batchnorm buffer, which the stages read but no gradient flows to."""
    return name.endswith((".mean", ".var"))


def _check_target(target, seed: int, rng: Rng, h: int, w: int) -> tuple[str, list[Stage], dict]:
    """(report name, stages, leaves) that `grad_check` checks for `target` on an h x w input.

    The leaves are one mapping: "__input__" and every parameter, the
    batchnorm buffers (`_is_buffer`) included. The stages are an input stage
    that reads "__input__", then the target's stage list: `model.model_stages`
    itself, `irmb.block_stages`, or one conv stage. Each stage reads its
    parameters from the mapping it is called with, as in the forward.
    Every leaf is f64; a model's parameters are upcast (its f64 twin).
    """
    if isinstance(target, EMOModel):
        check_resolution(h, w)
        name, body, cin = target.cfg.name, model_stages(target.cfg), IN_CHANNELS
        params = {k: v.astype(np.float64, copy=False) for k, v in target.params.items()}
    elif isinstance(target, (IRMBConfig, MMBConfig)):
        name, cfg = _block_of(target, h, w)
        params, body, cin = random_block_params(cfg, seed), block_stages(cfg, ""), cfg.in_channels
    elif isinstance(target, ConvSpec):
        name, cin = "conv2d", target.in_channels
        params = {
            "w": rng.normal("gradcheck.w", target.weight_shape(), std=0.5, precision="f64"),
        }
        if target.bias:
            params["b"] = rng.normal("gradcheck.b", (target.out_channels,), std=0.5, precision="f64")
        body = [Stage("conv2d", lambda x, p: ag.conv2d(x, p["w"], target, p.get("b")))]
    else:
        raise TypeError(f"cannot gradient-check {type(target).__name__}")
    x0 = rng.normal("gradcheck.x", (1, cin, h, w), precision="f64")
    return name, [Stage("input", lambda _, p: p["__input__"]), *body], {"__input__": x0, **params}


def grad_check(target, seed: int = 0, input_hw: tuple[int, int] = (8, 8),
               num_coords: int = 200, step: float = _FD_STEP) -> GradCheckReport:
    """Analytic VJP vs central finite differences on a random subsample, in f64.

    In f32 a central difference at this step is mostly roundoff, so a model
    target is checked through its f64 twin (its parameters upcast to f64).
    Relative error uses max(|analytic|, |numeric|, 1e-4 * max-gradient) as
    the denominator (see `_tape_rel_err`). Coordinates are drawn from every
    leaf of the one mapping the stages read (`_check_target`) but the
    batchnorm buffers. Each difference resumes at the first stage that reads
    the perturbed leaf, from the list of states of one plain forward, so a
    model's or block's differences skip the stages before it. After it,
    each block's activation recomputes only the entries whose input
    changed, and each windowed mix and stride-1 depth-wise stage that does
    not read the leaf only the windows or conv footprints those entries
    reach; the rest comes from that plain forward. Every difference is
    bit-identical to one over the whole forward. The report names the worst
    coordinate and the stage that first reads its leaf. A step that is not
    a finite number > 0, a negative `num_coords` and an `input_hw` that is
    not a positive (height, width) raise ValueError.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a finite number > 0, got {step}")
    if num_coords < 0:
        raise ValueError(f"num_coords must be >= 0, got {num_coords}")
    if len(input_hw) != 2 or min(input_hw) < 1:
        raise ValueError(f"input_hw must be a positive (height, width), got {input_hw}")
    h, w = input_hw
    rng = Rng(seed ^ 0xC0FFEE)
    name, stages, leaves = _check_target(target, seed, rng, h, w)

    # coordinate sample
    names = sorted(k for k in leaves if not _is_buffer(k))
    sizes = np.array([leaves[k].size for k in names])
    total = int(sizes.sum())
    picker = rng.stream("gradcheck.coords")
    take = min(num_coords, total)
    flat_idx = picker.choice(total, size=take, replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    coords = []
    for fi in sorted(flat_idx.tolist()):
        li = int(np.searchsorted(offsets, fi, side="right") - 1)
        coords.append((names[li], fi - offsets[li]))
    worst, where = _tape_rel_err(stages, leaves, rng, "gradcheck.cot", coords, step)
    return GradCheckReport(name, worst, take, *(where or (None, None, None)))
