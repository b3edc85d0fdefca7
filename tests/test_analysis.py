import itertools
import math
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from emo import (
    EMOModel,
    EMOVariantConfig,
    IRMBConfig,
    MMBConfig,
    build_emo,
    conv_receptive_radius,
    count_costs,
    diag_similarity,
    diag_similarity_of_features,
    formula_costs,
    grad_check,
    influence_mask,
    max_path_length,
    PRESETS,
    preset,
)
from emo import analysis, cost_meter
from emo import autograd as ag
from emo.attention import window_merge, window_partition
from emo.irmb import Stage, block_stages, is_buffer, run_stages
from emo.mmb import OPERATORS
from emo.ops import ConvSpec, CostMeter
from emo.tensor import Rng


# ---------------------------------------------------------------------------
# closed forms


def test_formula_mhsa_hand_arithmetic():
    f = formula_costs("mhsa", C=8, W=4)
    assert f["params"] == 288
    assert f["flops"] == 8 * 64 * 16 + 4 * 8 * 256 + 3 * 256 == 17152
    assert f["mpl"] == "O(1)"


def test_formula_dwconv_hand_arithmetic():
    f = formula_costs("dw-conv", C=8, k=3, W=4)
    assert f["params"] == 80
    assert f["flops"] == 2 * 9 * 16 * 8 == 2304
    assert f["mpl"] == "O(2W/(k-1))"


def test_formula_wmhsa_with_global_window_equals_mhsa():
    full = formula_costs("mhsa", C=8, W=4)
    windowed = formula_costs("w-mhsa", C=8, W=4, w=4)
    assert windowed["params"] == full["params"]
    assert windowed["flops"] == full["flops"]
    assert windowed["mpl"] == "O(Inf)"


def test_formula_conv_groups():
    f = formula_costs("conv", C=8, W=4, k=3, G=2)
    assert f["params"] == (8 * 9 // 2 + 1) * 8
    assert f["flops"] == (2 * 8 * 9 // 2) * 16 * 8


# ---------------------------------------------------------------------------
# direct counts vs closed forms (the oracle pairing)


@pytest.mark.parametrize("c", [4, 8, 16])
@pytest.mark.parametrize("res", [4, 8])
def test_direct_mhsa_counts_equal_formula(c, res):
    cfg = MMBConfig(c, 1.0, operator="ewmhsa", heads=1)  # window=None -> global
    rep = count_costs(cfg, resolution=res)
    f = formula_costs("mhsa", C=c, W=res)
    assert rep.params == f["params"]
    assert rep.flops == f["flops"]
    assert rep.flops / 2 == f["macs"]


@pytest.mark.parametrize("c", [4, 8, 16])
@pytest.mark.parametrize("res", [4, 8])
@pytest.mark.parametrize("w", [2, 4])
def test_direct_windowed_mhsa_counts_equal_formula(c, res, w):
    cfg = MMBConfig(c, 1.0, operator="ewmhsa", heads=1, window=w)
    rep = count_costs(cfg, resolution=res)
    f = formula_costs("w-mhsa", C=c, W=res, w=w)
    assert rep.params == f["params"]
    assert rep.flops == f["flops"]


@pytest.mark.parametrize("c", [4, 8, 16])
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("res", [4, 8])
def test_direct_dwconv_counts_equal_formula(c, k, res):
    spec = ConvSpec(c, c, kernel=k, padding=(k - 1) // 2, groups=c)
    rep = count_costs(spec, resolution=res)
    f = formula_costs("dw-conv", C=c, k=k, W=res)
    assert rep.params == f["params"]
    assert rep.flops == f["flops"]


def test_isolated_dwconv_block_params():
    spec = ConvSpec(8, 8, kernel=3, padding=1, groups=8)
    assert count_costs(spec, 4).params == (9 + 1) * 8 == 80


@pytest.mark.parametrize("resolution", [0, -3])
@pytest.mark.parametrize("target", [
    IRMBConfig(8, 8, 2.0, window=4, heads=2, enable_conv=False),  # -3 once read 3456 MACs: (-3)^2 pixels
    MMBConfig(8, 2.0, operator="ewmhsa_dwconv", window=2, heads=2),
    ConvSpec(8, 8, kernel=1),
    preset("emo-1m"),
], ids=["irmb", "mmb", "conv", "model"])
def test_count_costs_rejects_a_non_positive_resolution(target, resolution):
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        count_costs(target, resolution)


# ---------------------------------------------------------------------------
# model-level costs


def test_preset_costs_against_published_budgets():
    targets = {
        "emo-1m": (1.3e6, 261e6),
        "emo-2m": (2.3e6, 439e6),
        "emo-5m": (5.1e6, 903e6),
        "emo-6m": (6.1e6, 961e6),
    }
    for name, (p_ref, m_ref) in targets.items():
        rep = count_costs(preset(name), 224)
        assert abs(rep.params / p_ref - 1) < 0.05, (name, rep.params)
        assert abs(rep.flops / 2 / m_ref - 1) < 0.10, (name, rep.flops / 2)


def test_category_sums_and_fractions_are_consistent():
    rep = count_costs(preset("emo-5m"), 224)
    cats = rep.by_category()
    assert sum(v["params"] for v in cats.values()) == rep.params
    assert sum(v["flops"] for v in cats.values()) == rep.flops
    fr = rep.fractions()
    assert abs(sum(v["params"] for v in fr.values()) - 1) < 1e-9
    assert abs(sum(v["macs"] for v in fr.values()) - 1) < 1e-9


def test_report_text_and_dict_render():
    rep = count_costs(preset("emo-1m"), 224)
    text = rep.as_text()
    assert "attention" in text and "total" in text
    totals = rep.as_dict()["totals"]
    assert set(totals) == {"params", "macs", "flops", "softmax_elems", "bias_adds", "norm_elems",
                           "act_elems", "other_adds"}
    for key in totals.keys() - {"macs"}:
        assert totals[key] == getattr(rep, key), key
    assert totals["softmax_elems"] > 0 and totals["other_adds"] > 0
    # the JSON macs is flops / 2: the report's contraction MACs plus 1.5 per softmax element
    assert totals["macs"] == rep.flops / 2
    assert totals["macs"] - 1.5 * totals["softmax_elems"] == rep.macs


# ---------------------------------------------------------------------------
# influence masks


def conv_only(c=4, k=3):
    return IRMBConfig(c, c, 2.0, kernel=k, enable_attn=False)


def attn_only(c=4, w=2):
    return IRMBConfig(c, c, 2.0, window=w, heads=2, expand_groups=2, enable_conv=False)


def test_two_dwconv_blocks_give_chebyshev_ball():
    m = influence_mask([conv_only()] * 2, (4, 4), 9, mode="structural")
    want = np.zeros((9, 9), dtype=bool)
    want[2:7, 2:7] = True
    assert np.array_equal(m.mask, want)
    assert m.count == 25


def test_single_global_window_block_covers_map():
    cfg = IRMBConfig(4, 4, 2.0, window=8, heads=2, expand_groups=2)
    m = influence_mask([cfg], (0, 0), 8, mode="structural")
    assert m.mask.all()


def test_windowed_attention_never_crosses_windows():
    stack = [attn_only(w=2)] * 5
    m = influence_mask(stack, (0, 0), 8, mode="structural")
    want = np.zeros((8, 8), dtype=bool)
    want[:2, :2] = True
    assert np.array_equal(m.mask, want)
    v = influence_mask(stack, (0, 0), 8, mode="vjp", seed=2)
    assert np.array_equal(v.mask, want)


def cascade(**flags):
    return IRMBConfig(4, 4, 2.0, kernel=3, window=2, heads=2, expand_groups=2, **flags)


@pytest.mark.parametrize("kind", ["conv", "attn", "cascade", "cascade-conv-first", "cascade-post-expand"])
def test_structural_and_vjp_modes_agree(kind):
    if kind == "conv":
        stack = [conv_only()] * 2
    elif kind == "attn":
        stack = [attn_only(w=3)] * 2
    elif kind == "cascade-conv-first":
        stack = [cascade(attn_at="depthwise")] * 2
    elif kind == "cascade-post-expand":
        stack = [cascade(attn_at="expand")] * 2
    else:
        stack = [cascade()] * 2
    for src in [(0, 0), (3, 4), (6, 6)]:
        a = influence_mask(stack, src, 7, mode="structural")
        b = influence_mask(stack, src, 7, mode="vjp", seed=1)
        assert np.array_equal(a.mask, b.mask), (kind, src)


def test_influence_grows_monotonically_with_depth():
    prev = None
    for depth in (1, 2, 3, 4):
        m = influence_mask([conv_only()] * depth, (4, 4), 11, mode="structural")
        assert m.mask.any()
        if prev is not None:
            assert np.all(prev | m.mask == m.mask)  # superset
        prev = m.mask


@pytest.mark.parametrize("k", [3, 5])
def test_conv_radius_grows_exactly_per_block(k):
    for depth in (1, 2, 3):
        m = influence_mask([conv_only(k=k)] * depth, (7, 7), 15, mode="structural")
        ii, jj = np.where(m.mask)
        assert max(np.abs(ii - 7).max(), np.abs(jj - 7).max()) == depth * (k - 1) // 2


def _mask_reach(mask, stages):
    """Reference reach as a boolean map: each window closes it over the attention
    windows the forward tiles, each conv dilates it by a kernel-sided square."""
    for stage in stages:
        if stage.window:
            tokens, layout = window_partition(mask[None, None], stage.window, 1)
            mask = window_merge(np.broadcast_to(tokens.any(axis=2, keepdims=True), tokens.shape), layout, 1)[0, 0]
        if stage.conv:
            mask = binary_dilation(mask, structure=np.ones((stage.conv.kernel,) * 2, dtype=bool))
    return mask


@pytest.mark.parametrize("h, w", [(1, 5), (2, 2), (7, 7), (9, 12), (14, 20), (23, 30)])
def test_box_reach_equals_the_mask_fold(h, w):
    # a box stays a box through window snapping and conv growth, so the box
    # fold draws exactly the mask fold's map, from a pixel or a small box,
    # through stacks of 1-3 window and conv stages, on square and oblong maps
    gen = np.random.default_rng([h, w])
    for case in range(120):
        stages = []
        for _ in range(gen.integers(1, 4)):
            if gen.random() < 0.5:
                stages.append(Stage("mix", None, window=int(gen.integers(1, 8))))
            else:
                k = int(gen.choice([1, 3, 5, 7]))
                stages.append(Stage("dw", None, conv=ConvSpec(1, 1, kernel=k, padding=(k - 1) // 2, groups=1)))
        y0, x0 = int(gen.integers(h)), int(gen.integers(w))
        y1, x1 = (y0 + 1, x0 + 1) if case % 2 else (y0 + 1 + int(gen.integers(min(h - y0, 4))),
                                                    x0 + 1 + int(gen.integers(min(w - x0, 4))))
        mask = np.zeros((h, w), dtype=bool)
        mask[y0:y1, x0:x1] = True
        box, want = analysis._reach((y0, y1, x0, x1), stages, h, w), _mask_reach(mask, stages)
        drawn = np.zeros((h, w), dtype=bool)
        drawn[box[0]:box[1], box[2]:box[3]] = True
        assert box == _box(want) and np.array_equal(drawn, want), (case, (y0, y1, x0, x1), stages)


def test_executed_work_matches_static_count_across_block_matrix(fold_metered):
    import itertools

    from emo import cost_meter, irmb_forward, random_block_params

    checked = stage_field_checks = 0
    for attn, conv, stride, attn_at, inner_skip, cout, w, res, e_norm in itertools.product(
        (False, True), (False, True), (1, 2), ("pre_norm", "expand", "act", "depthwise"), (True, False),
        (8, 12), (2, 3), (6, 7), ("auto", "batchnorm"),
    ):
        if stride == 2 and (not conv or (attn and attn_at == "depthwise")):
            continue
        if attn_at == "depthwise" and not conv:
            continue
        if not attn and attn_at != "pre_norm":
            continue  # attn_at only matters with attention
        if not inner_skip and (not conv or stride == 2):
            continue  # inner_skip only matters on a stride-1 depth-wise stage
        cfg = IRMBConfig(8, cout, 2.0, window=w, heads=2, expand_groups=2,
                         stride=stride, enable_attn=attn, enable_conv=conv,
                         attn_at=attn_at, inner_skip=inner_skip, expand_norm=e_norm)
        params = random_block_params(cfg, seed=0)
        x = np.random.default_rng(1).normal(size=(1, 8, res, res))
        with cost_meter() as m:
            y = irmb_forward(x, cfg, params)
        rep = count_costs(cfg, res)
        key = (attn, conv, stride, attn_at, inner_skip, cout, w, res, e_norm)
        folded, checks = fold_metered(block_stages(cfg, ""), x, params, (res, res))
        assert folded.tobytes() == y.tobytes(), key
        stage_field_checks += checks
        for field in fields(CostMeter):
            assert getattr(m, field.name) == getattr(rep, field.name), (key, field.name)
        assert m.flops == rep.flops, key
        checked += 1
    assert checked >= 100 and stage_field_checks >= 30 * checked  # five stages at least


# ---------------------------------------------------------------------------
# max path length


def test_conv_only_path_length_matches_chebyshev_count():
    for k, W in [(3, 8), (5, 8), (3, 14), (5, 14), (3, 224), (5, 512)]:
        rep = max_path_length(IRMBConfig(4, 4, 1.0, kernel=k, enable_attn=False), W)
        assert rep.empirical == math.ceil((W - 1) / ((k - 1) // 2))


def test_global_window_cascade_is_one_hop():
    rep = max_path_length(IRMBConfig(4, 4, 1.0, kernel=3, window=8, heads=1), 8)
    assert rep.empirical == 1


def test_pure_windowed_attention_unreachable():
    rep = max_path_length(IRMBConfig(4, 4, 1.0, window=2, heads=1, enable_conv=False), 8)
    assert rep.empirical is None and not rep.reachable
    assert rep.closed_form is None


def test_cascade_small_window_honest_value():
    # frozen from the propagation simulation: windows advance at most to the
    # window edge, so k=3 w=2 W=8 needs 4 blocks (the quoted ceiling says 3)
    rep = max_path_length(IRMBConfig(4, 4, 1.0, kernel=3, window=2, heads=1), 8)
    assert rep.empirical == 4
    assert rep.closed_form == 3


def test_cascade_beats_conv_only_whenever_window_exceeds_one():
    for k in (3, 5):
        for w in (2, 4, 7):
            for W in (8, 14, 28):
                conv = max_path_length(IRMBConfig(4, 4, 1.0, kernel=k, enable_attn=False), W)
                casc = max_path_length(IRMBConfig(4, 4, 1.0, kernel=k, window=w, heads=1), W)
                assert casc.empirical < conv.empirical, (k, w, W)


@pytest.mark.parametrize("resolution", [1, 0, -3])
@pytest.mark.parametrize("cfg", [IRMBConfig(4, 4, 1.0, kernel=1, enable_attn=False),
                                 IRMBConfig(4, 4, 1.0, kernel=3, window=2, heads=1)], ids=["conv-k1", "cascade"])
def test_path_length_needs_two_corners(cfg, resolution):
    # a 1x1 map has one corner: a k=1 conv once read empirical=1, reachable,
    # next to its O(Inf) closed form
    with pytest.raises(ValueError, match="resolution must be >= 2"):
        max_path_length(cfg, resolution)
    assert max_path_length(cfg, 2).empirical == (None if cfg.kernel == 1 else 1)


@pytest.mark.parametrize("stack, match", [
    ([IRMBConfig(4, 4, 1.0, enable_attn=False, stride=2)], "stride-1"),  # mpl once gave 7, the stride-1 answer
    ([IRMBConfig(4, 8, 1.0, enable_attn=False)], "channel-preserving"),
    ([IRMBConfig(4, 8, 1.0, window=2, heads=1)], "channel-preserving"),
    ([conv_only(c=4), conv_only(c=8)], "one width"),
], ids=["stride-2", "widening-conv", "widening-cascade", "two-widths"])
def test_structural_analyses_reject_a_block_that_changes_the_map(stack, match):
    with pytest.raises(ValueError, match=match):
        influence_mask(stack, (0, 0), 8)
    if len(stack) == 1:
        with pytest.raises(ValueError, match=match):
            max_path_length(stack[0], 8)


# ---------------------------------------------------------------------------
# diagonal similarity


TINY = EMOVariantConfig("tiny", (1, 1, 2, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0),
                        num_classes=10, attn_stages=frozenset({3, 4}))
TINY_CONV = EMOVariantConfig("tiny-conv", (1, 1, 2, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0),
                             num_classes=10, attn_stages=frozenset())


def test_first_similarity_entry_is_exactly_one():
    model = build_emo(TINY, seed=0, precision="f64")
    x = np.random.default_rng(0).normal(size=(1, 3, 224, 224))
    sims = diag_similarity(model, 3, x)
    assert sims[0] == 1.0
    assert sims.shape == (14,)
    assert np.all(np.abs(sims) <= 1 + 1e-12)


def test_constant_input_conv_only_interior_diagonal_is_constant():
    # translation equivariance on constant input: interior features are all
    # equal, so the similarity profile anchored inside the interior is 1.0
    from emo import stage_features

    model = build_emo(TINY_CONV, seed=3, precision="f64")
    x = np.full((1, 3, 224, 224), 0.5)
    feats = stage_features(model, x, 3)
    rf = conv_receptive_radius(TINY_CONV, 3)
    border = math.ceil(rf["radius_input_px"] / rf["stage_stride"])
    interior = feats[:, :, border:14 - border, border:14 - border]
    assert min(interior.shape[2:]) >= 4
    sims = diag_similarity_of_features(interior)
    np.testing.assert_allclose(sims, 1.0, atol=1e-9)


def test_attention_raises_long_distance_similarity():
    rf = conv_receptive_radius(TINY_CONV, 3)
    d0 = rf["disjoint_distance"]
    wins = 0
    for seed in range(6):
        x = np.random.default_rng(seed).normal(size=(1, 3, 224, 224))
        with_attn = diag_similarity(build_emo(TINY, seed=seed, precision="f64"), 3, x)
        conv_only_sims = diag_similarity(build_emo(TINY_CONV, seed=seed, precision="f64"), 3, x)
        if with_attn[d0:].mean() > conv_only_sims[d0:].mean():
            wins += 1
    assert wins >= 5


def test_similarity_rejects_bad_stage():
    model = build_emo(TINY, seed=0)
    with pytest.raises(ValueError, match="stage"):
        diag_similarity(model, 5, np.zeros((1, 3, 64, 64), dtype=np.float32))


@pytest.mark.parametrize("name, want", [
    ("emo-1m", [(7, 4, 4), (19, 8, 5), (139, 16, 18), (219, 32, 14)]),
    *((name, [(11, 4, 6), (31, 8, 8), (167, 16, 21), (247, 32, 16)]) for name in ("emo-2m", "emo-5m", "emo-6m")),
])
def test_receptive_radius_of_every_preset_and_stage(name, want):
    got = [conv_receptive_radius(preset(name), stage) for stage in (1, 2, 3, 4)]
    assert [(rf["radius_input_px"], rf["stage_stride"], rf["disjoint_distance"]) for rf in got] == want


@pytest.mark.parametrize("stage", [-1, 0, 5, 9])
def test_receptive_radius_rejects_a_stage_outside_1_to_4(stage):
    # 0 once gave the stem's radius alone and 9 the whole model's (219 px)
    with pytest.raises(ValueError, match="stage must be 1..4"):
        conv_receptive_radius(preset("emo-1m"), stage)


def test_diag_similarity_guards_zero_vectors():
    sims = diag_similarity_of_features(np.zeros((1, 4, 3, 3)))
    assert sims[0] == 1.0 and np.all(sims[1:] == 0.0)


# ---------------------------------------------------------------------------
# gradient checks


def test_linear_map_gradcheck_is_essentially_exact():
    # central differences of a linear map are step-independent; a large step
    # leaves only rounding
    rep = grad_check(ConvSpec(4, 6, kernel=1), seed=2, input_hw=(5, 5), step=0.1)
    assert rep.max_rel_err < 1e-9


def test_full_irmb_gradcheck():
    cfg = IRMBConfig(8, 8, 2.0, window=4, heads=2, expand_groups=2)
    rep = grad_check(cfg, seed=0, input_hw=(8, 8))
    assert rep.max_rel_err < 1e-4
    assert rep.coords_checked >= 200


def test_degenerate_mlp_block_gradcheck():
    cfg = IRMBConfig(8, 8, 2.0, enable_attn=False, enable_conv=False)
    rep = grad_check(cfg, seed=1, input_hw=(8, 8))
    assert rep.max_rel_err < 1e-6


def test_mmb_gradcheck():
    cfg = MMBConfig(4, 2.0, operator="ewmhsa_dwconv", window=2, heads=2,
                    pre_norm="layernorm", expand_act="gelu",
                    operator_norm="batchnorm", operator_act="silu")
    rep = grad_check(cfg, seed=3, input_hw=(4, 4))
    assert rep.max_rel_err < 1e-4


def _grads_model():
    return build_emo(
        EMOVariantConfig("grads", (1, 1, 1, 1), (4, 4, 8, 8), (2.0, 2.0, 2.0, 2.0),
                         num_classes=5, windows=(2, 2, 2, 2)),
        seed=0, precision="f64",
    )


_MMB_BINDINGS = dict(heads=2, pre_norm="layernorm", expand_act="gelu", operator_norm="batchnorm", operator_act="silu")
_CHECK_TARGETS = {
    "irmb-attn-first": lambda: IRMBConfig(8, 8, 2.0, window=4, heads=2, expand_groups=2),
    "irmb-attn-after-conv": lambda: IRMBConfig(8, 8, 2.0, window=4, heads=2, attn_at="depthwise"),
    # at 6x6 the 4x4 windows pad, so the activation reads the window merge's cropped view
    "irmb-post-expand": lambda: IRMBConfig(8, 8, 2.0, window=4, heads=2, attn_at="expand"),
    "irmb-stride-2": lambda: IRMBConfig(8, 16, 2.0, window=4, heads=2, stride=2),
    # placements only the config's fields state: attention after the activation
    # with the conv, and a depth-wise stage without its inner skip
    "irmb-attn-after-act-no-inner-skip": lambda: IRMBConfig(8, 8, 2.0, window=4, heads=2, attn_at="act",
                                                            inner_skip=False),
    "irmb-attn-after-act-stride-2": lambda: IRMBConfig(8, 16, 2.0, window=4, heads=2, attn_at="act", stride=2),
    "irmb-mlp": lambda: IRMBConfig(8, 8, 2.0, enable_attn=False, enable_conv=False),
    **{f"mmb-{op}": lambda op=op: MMBConfig(8, 2.0, operator=op, window=3, **_MMB_BINDINGS) for op in OPERATORS},
    "conv": lambda: ConvSpec(4, 6, kernel=3, padding=1),
    "model": _grads_model,
    # maps on which a change reaches only part of a local stage's map, so the
    # difference reruns it on a crop: several windows, padded windows, a map
    # one window wide, kernel 5
    "mmb-ewmhsa_dwconv-windows": lambda: MMBConfig(8, 2.0, operator="ewmhsa_dwconv", window=3, **_MMB_BINDINGS),
    "mmb-dwconv_ewmhsa-padded": lambda: MMBConfig(8, 2.0, operator="dwconv_ewmhsa", window=4, **_MMB_BINDINGS),
    "mmb-ewmhsa-one-window-wide": lambda: MMBConfig(8, 2.0, operator="ewmhsa", window=7, **_MMB_BINDINGS),
    "mmb-ewmhsa_dwconv-k5": lambda: MMBConfig(8, 2.0, operator="ewmhsa_dwconv", kernel=5, window=3,
                                              **_MMB_BINDINGS),
    "mmb-dwconv-k5": lambda: MMBConfig(8, 2.0, operator="dwconv", kernel=5, **_MMB_BINDINGS),
    "irmb-k5-attn-after-conv": lambda: IRMBConfig(8, 8, 2.0, kernel=5, window=3, heads=2, attn_at="depthwise"),
    "irmb-k5-attn-first": lambda: IRMBConfig(8, 8, 2.0, kernel=5, window=4, heads=2),
    # value heads 4 wide: a padded crop one window column wide tiles into a
    # view, on which the value product can round differently
    "mmb-ewmhsa-padded-narrow-heads": lambda: MMBConfig(8, 1.0, operator="ewmhsa", window=4, heads=2,
                                                        pre_norm="layernorm", expand_act="gelu"),
}
# map sizes of the targets that must rerun some local stage on a crop; the rest run at 6x6
_CROP_HW = {
    "mmb-ewmhsa_dwconv-windows": (9, 12),
    "mmb-dwconv_ewmhsa-padded": (10, 9),
    "mmb-ewmhsa-one-window-wide": (7, 21),
    "mmb-ewmhsa_dwconv-k5": (12, 12),
    "mmb-dwconv-k5": (11, 13),
    "irmb-k5-attn-after-conv": (9, 9),
    "irmb-k5-attn-first": (16, 16),
    "irmb-attn-first": (9, 12),
    "irmb-post-expand": (9, 12),
    "irmb-attn-after-act-no-inner-skip": (9, 12),
    "mmb-ewmhsa-padded-narrow-heads": (6, 6),
}


def _same_state(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_state, a, b))
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _arrays(state):
    """The arrays of a stage state: a tuple of arrays and Nones, an array, or None."""
    if isinstance(state, tuple):
        return [a for s in state for a in _arrays(s)]
    return [] if state is None else [state]


def _edge_positions(h, w, window):
    """Flat indices into an (h, w) map: the corners, and the pixels on both sides of each window edge."""
    def axis(n):
        return sorted({0, n - 1, *(e for m in range(window or n, n, window or n) for e in (m - 1, m))})
    return [r * w + c for r in axis(h) for c in axis(w)]


@pytest.mark.parametrize("name", _CHECK_TARGETS)
def test_resumed_differences_are_the_full_forward_ones_bit_for_bit(name):
    # one coordinate per parameter leaf and input pixels at the corners and on
    # window edges, moved by +-step: the stages before the leaf's first reader
    # recompute the kept state unchanged, and the forward resumed from that
    # state, with each activation rerun only where its input changed and each
    # local stage only on the crop the change reaches, gives the full
    # forward's output and loss bit for bit
    target = _CHECK_TARGETS[name]()
    hw = (32, 32) if isinstance(target, EMOModel) else _CROP_HW.get(name, (6, 6))
    _, stages, leaves = analysis._check_target(target, 0, Rng(0), *hw)
    states, readers = analysis._plain_pass(stages, leaves), analysis._readers(stages)
    # an input stage, then the model's, the block's or the conv's stages
    last = {EMOModel: "head.w", ConvSpec: "w"}.get(type(target), "shrink.w")
    assert readers["__input__"] == [0] and readers[last] == [len(stages) - 1]
    assert len(states) == len(stages) + 1 and states[0] is None
    if name == "irmb-post-expand":
        assert not any(states[i][-1].flags.c_contiguous for i, st in enumerate(stages) if st.elementwise)
    for a in [a for st in states for a in _arrays(st)]:
        a.setflags(write=False)  # no resumed forward may write into a plain-pass state
    sample = Rng(1).normal("cot", np.shape(states[-1]), precision="f64")
    window = getattr(target, "window", None)
    coords = [(key, 0) for key in leaves if not is_buffer(key)]
    coords += [("__input__", c * hw[0] * hw[1] % leaves["__input__"].size + p)
               for c, p in enumerate(_edge_positions(*hw, window))]
    reran = cropped = 0
    for key, idx in coords:
        i = readers[key][0]
        for step in (1e-5, -1e-5):
            pert = dict(leaves)
            pert[key] = leaves[key].copy()
            pert[key].reshape(-1)[idx] += step
            state = None
            for j, stage in enumerate(stages):
                if j <= i:
                    assert _same_state(state, states[j]), (key, j)
                state = stage(state, pert)
            with cost_meter() as whole:
                assert _same_state(run_stages(stages[i:], states[i], pert), state), key
            with cost_meter() as resumed:
                out = analysis._run_from(stages, i, states, pert, readers[key])
            assert _same_state(out, state), (key, idx)
            assert float((out * sample).sum()).hex() == float((state * sample).sum()).hex(), (key, idx)
            reran += resumed.act_elems < whole.act_elems
            cropped += resumed.softmax_elems < whole.softmax_elems or resumed.macs < whole.macs
    assert reran > 0 or not any(st.elementwise for st in stages)  # some activation reran only its changed entries
    assert cropped > 0 or name not in _CROP_HW  # some local stage reran on a crop
    # no resumed forward wrote into a plain-pass state
    assert all(map(_same_state, states, analysis._plain_pass(stages, leaves)))


@pytest.mark.parametrize("name", _CHECK_TARGETS)
def test_every_check_target_passes_the_f64_gradient_oracle(name):
    # every leaf grad_check differences is f64, and on each target's map the
    # analytic gradient meets the central differences; the worst coordinate
    # is named by a leaf of the target and a stage that reads it
    target = _CHECK_TARGETS[name]()
    hw = (32, 32) if isinstance(target, EMOModel) else _CROP_HW.get(name, (6, 6))
    _, stages, leaves = analysis._check_target(target, 0, Rng(0), *hw)
    assert {leaf.dtype for leaf in leaves.values()} == {np.dtype(np.float64)}
    rep = grad_check(target, seed=0, input_hw=hw, num_coords=40)
    assert rep.coords_checked == 40 and rep.max_rel_err < 1e-4, rep
    assert rep.worst_leaf in leaves and rep.worst_stage in {st.name for st in stages}


def _box(mask):
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    return rows[0], rows[-1] + 1, cols[0], cols[-1] + 1


@pytest.mark.parametrize("window, kernel", [(w, None) for w in (1, 2, 3, 7)] + [(None, k) for k in (1, 3, 5)])
def test_local_rerun_box_is_the_bounding_box_of_the_reach(window, kernel):
    # a probe stage marks the positions it ran on; _rerun_local pastes exactly
    # the bounding box of the reach of the changed positions, unless its crop
    # (that box plus the conv's halo) covers more than half the map, when the
    # stage runs whole. A window box one window column wide that needs padding
    # takes the next window column, or the previous one at the right edge
    h, w, c = 23, 30, 3
    conv = ConvSpec(c, c, kernel=kernel, padding=(kernel - 1) // 2, groups=c) if kernel else None
    probe = Stage("probe", lambda s, p: (*s[:-1], np.ones_like(s[-1])), conv=conv, window=window)
    assert probe.local
    halo = (kernel - 1) // 2 if kernel else 0
    base_in, base_out = np.zeros((1, c, h, w)), np.zeros((1, c, h, w))
    gen = np.random.default_rng([window or 0, kernel or 0])
    cropped = widened = 0
    for _ in range(60):
        y0, x0 = gen.integers(h), gen.integers(w)
        y1, x1 = y0 + 1 + gen.integers(min(h - y0, 9)), x0 + 1 + gen.integers(min(w - x0, 9))
        mask = np.zeros((h, w), dtype=bool)
        mask[y0:y1, x0:x1] = gen.random((y1 - y0, x1 - x0)) < 0.3
        mask[gen.integers(y0, y1), gen.integers(x0, x1)] = True
        x = base_in.copy()
        rows, cols = np.nonzero(mask)
        x[0, gen.integers(c, size=rows.size), rows, cols] = 1.0  # each changed position in one channel
        out = analysis._rerun_local(probe, (x,), {}, (base_in,), base_out)[-1]
        assert out.shape == base_out.shape and not base_out.any()
        b0, b1, a0, a1 = analysis._reach(_box(mask), [probe], h, w)
        if window and a1 - a0 <= window < w and ((b1 - b0) % window or (a1 - a0) % window):
            a0, a1 = (a0 - window, a1) if a1 == w else (a0, min(a1 + window, w))
            widened += 1
        crop = (min(b1 + halo, h) - max(b0 - halo, 0)) * (min(a1 + halo, w) - max(a0 - halo, 0))
        if 2 * crop > h * w:
            assert out.all()
            continue
        cropped += 1
        assert _box(out.any(axis=(0, 1))) == (b0, b1, a0, a1)
        assert out[..., b0:b1, a0:a1].all() and out.sum() == c * (b1 - b0) * (a1 - a0)
    assert cropped >= 30
    assert widened > 0 or window in (None, 1)  # the map's 23 rows pad under windows of 2, 3 and 7
    # no change: the kept output, copied
    out = analysis._rerun_local(probe, (base_in.copy(),), {}, (base_in,), base_out)[-1]
    assert out is not base_out and not out.any()


@pytest.mark.parametrize("kwargs, argument", [
    ({"step": 0}, "step"), ({"step": -1e-5}, "step"), ({"step": float("nan")}, "step"),
    ({"step": float("inf")}, "step"), ({"num_coords": -1}, "num_coords"), ({"input_hw": (0, 8)}, "input_hw"),
    ({"input_hw": (8, -2)}, "input_hw"), ({"input_hw": (8,)}, "input_hw"), ({"input_hw": (8, 8, 8)}, "input_hw"),
])
def test_grad_check_rejects_bad_arguments(kwargs, argument):
    with pytest.raises(ValueError, match=argument):
        grad_check(IRMBConfig(8, 8, 2.0, enable_attn=False, enable_conv=False), **kwargs)


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("kind", ["gelu", "silu"])
def test_elementwise_rerun_counts_flipped_zeros_and_nans_as_changed(kind, precision):
    cfg = IRMBConfig(4, 4, 2.0, enable_attn=False, expand_act=kind)
    (act,) = [st for st in block_stages(cfg, "") if st.elementwise]
    x, u = object(), object()
    base_in = Rng(0).normal("v", (1, 8, 5, 5), precision=precision)
    base_in.reshape(-1)[:2] = 0.0
    base_out = act((x, u, base_in), {})[-1]
    base_in.setflags(write=False)
    base_out.setflags(write=False)
    v = base_in.copy()
    v.reshape(-1)[:3] = (-0.0, np.nan, 3.5)  # -0.0 == +0.0 as values, not as bits
    with cost_meter() as m:
        got = analysis._rerun_elementwise(act, (x, u, v), {}, base_in, base_out)
    assert m.act_elems == 3  # only the changed entries ran
    assert got[0] is x and got[1] is u
    assert got[2].tobytes() == act((x, u, v), {})[-1].tobytes()
    assert np.signbit(got[2].reshape(-1)[0]) and np.isnan(got[2].reshape(-1)[1])
    with cost_meter() as m:  # a dense change set just runs the stage
        got = analysis._rerun_elementwise(act, (x, u, -base_in), {}, base_in, base_out)
    assert m.act_elems == base_in.size
    assert got[2].tobytes() == act((x, u, -base_in), {})[-1].tobytes()


def test_plain_pass_lists_states_and_readers_and_an_unread_leaf_resumes_from_the_output():
    leaves = {"a": np.ones(2), "b": np.full(2, 4.0), "c": np.zeros(2)}
    calls = []

    def stage(name, fn, **kwargs):
        return Stage(name, lambda s, p: calls.append(name) or fn(s, p), **kwargs)

    stages = [stage("a", lambda _, p: (ag.scale(p["a"], 3.0),), leaves={"a": (2,)}),
              stage("neg", lambda s, p: (ag.scale(s[-1], -1.0),), elementwise=True),
              stage("b", lambda s, p: ag.add(s[-1], ag.add(p.get("b"), p["a"])), leaves={"b": (2,), "a": (2,)})]
    states, readers = analysis._plain_pass(stages, leaves), analysis._readers(stages)
    assert readers == {"a": [0, 2], "b": [2]}  # the stages that declare each leaf; none declares c
    assert states[0] is None and states[1][0].tolist() == [3.0, 3.0] and states[2][0].tolist() == [-3.0, -3.0]
    assert states[3].tolist() == [2.0, 2.0]  # the output
    # after the taped and the plain pass, each difference runs the stages from
    # the key's first reader on: an undeclared key's none, from the output
    for key, ran, reader in (("c", [], None), ("b", ["b"], "b"), ("a", ["a", "neg", "b"], "a")):
        calls.clear()
        worst, where = analysis._tape_rel_err(stages, leaves, Rng(0), "cot", [(key, 1)], 1e-5)
        assert calls == ["a", "neg", "b"] * 2 + ran * 2, key
        assert worst < 1e-8 and where == (key, 1, reader)


def test_grad_check_names_the_worst_coordinate_and_its_first_reader():
    # the leaf b gets a VJP 3x too large, so its coordinates are the worst; the
    # report names b, a checked index of it, and "bad", the first stage reading b
    leaves = {"x": np.linspace(-1.0, 1.0, 6), "b": np.linspace(0.5, 1.0, 6)}
    stages = [Stage("input", lambda _, p: p["x"], leaves={"x": (6,)}),
              Stage("act", lambda s, p: (ag.silu(s),)),
              Stage("bad", lambda s, p: ag.add(s[0], ag.linear(p["b"], ag.val(p["b"]), lambda g: 3.0 * g)),
                    leaves={"b": (6,)})]
    worst, (leaf, index, stage) = analysis._tape_rel_err(
        stages, leaves, Rng(0), "cot", [("x", 1), ("b", 4), ("x", 5), ("b", 2)], 1e-5)
    assert worst > 0.5 and (leaf, stage) == ("b", "bad") and index in (2, 4)
    # a NaN error is the worst, after a finite one too (max(0.1, nan) is 0.1)
    stages[2] = Stage("bad", lambda s, p: ag.add(s[0], ag.linear(p["b"], ag.val(p["b"]), lambda g: g * np.nan)),
                      leaves={"b": (6,)})
    worst, (leaf, index, stage) = analysis._tape_rel_err(
        stages, leaves, Rng(0), "cot", [("x", 1), ("b", 4), ("x", 5)], 1e-5)
    assert math.isnan(worst) and (leaf, index, stage) == ("b", 4, "bad")
    # grad_check reports it: a leaf of this block is first read by the stage it is named after
    rep = grad_check(IRMBConfig(8, 8, 2.0, enable_attn=False, enable_conv=False), seed=1, input_hw=(8, 8))
    assert rep.worst_stage == ("input" if rep.worst_leaf == "__input__" else rep.worst_leaf.split(".")[0])
    assert isinstance(rep.worst_index, int)
    rep = grad_check(ConvSpec(4, 6, kernel=1), num_coords=0)
    assert (rep.max_rel_err, rep.worst_leaf, rep.worst_index, rep.worst_stage) == (0.0, None, None, None)


class _LoggedReads(Mapping):
    """Leaves, read-only, noting every key read by [] or get. A membership test is not a read."""

    def __init__(self, leaves: dict):
        self.leaves, self.read = leaves, set()

    def __getitem__(self, key):
        value = self.leaves[key]
        self.read.add(key)
        return value

    def __contains__(self, key):
        return key in self.leaves

    def __iter__(self):
        return iter(self.leaves)

    def __len__(self):
        return len(self.leaves)


def _irmb_matrix():
    # every valid (enable_attn, enable_conv, attn_at, inner_skip, stride), with
    # the default norm bindings and with swapped or absent ones
    bindings = ({}, dict(pre_norm="batchnorm", expand_norm="layernorm", expand_act="none", conv_norm="none",
                         conv_act="none"))
    for attn, conv, at, skip, stride, bind in itertools.product(
            (True, False), (True, False), ("pre_norm", "expand", "act", "depthwise"), (True, False), (1, 2), bindings):
        try:
            yield IRMBConfig(8, 8, 2.0, window=4, heads=2, stride=stride, enable_attn=attn, enable_conv=conv,
                             attn_at=at, inner_skip=skip, **bind)
        except ValueError:
            continue


def _primitive_stage_lists(monkeypatch):
    seen = []
    monkeypatch.setattr(analysis, "_tape_rel_err",
                        lambda stages, leaves, *_: seen.append((stages, leaves)) or (0.0, None))
    analysis.check_primitives(0)
    return seen


_DECLARATION_TARGETS = {
    "presets": lambda mp: [analysis._check_target(build_emo(p, seed=0), 0, Rng(0), 64, 64)[1:] for p in PRESETS],
    "irmb-matrix": lambda mp: [analysis._check_target(cfg, 0, Rng(0), 8, 8)[1:] for cfg in _irmb_matrix()],
    "mmb-operators": lambda mp: [analysis._check_target(MMBConfig(8, 2.0, operator=op, window=3, **bind),
                                                        0, Rng(0), 6, 6)[1:]
                                 for op in OPERATORS for bind in (_MMB_BINDINGS, {"expand_norm": "batchnorm"})],
    "conv": lambda mp: [analysis._check_target(ConvSpec(4, 6, kernel=3, padding=1, bias=bias), 0, Rng(0), 6, 6)[1:]
                        for bias in (True, False)],
    "primitives": _primitive_stage_lists,
}


@pytest.mark.parametrize("name", _DECLARATION_TARGETS)
def test_each_stage_declares_exactly_the_leaves_it_reads(name, monkeypatch):
    # the reference for the declarations: a fold that logs each stage's reads,
    # by [] or get, finds exactly the leaves the stage declares, at their shapes
    checked, wrong = 0, []
    for stages, leaves in _DECLARATION_TARGETS[name](monkeypatch):
        state = None
        for stage in stages:
            reads = _LoggedReads(leaves)
            state = stage(state, reads)
            if {k: np.shape(leaves[k]) for k in reads.read} != stage.leaves:
                wrong.append((stage.name, sorted(reads.read), stage.leaves))
            checked += 1
    assert not wrong, wrong[:4]
    assert checked >= {"presets": 500, "irmb-matrix": 600, "mmb-operators": 70}.get(name, 2)


def test_grad_check_frees_its_tape_before_the_finite_differences():
    # the perturbed forwards run after the analytic pass: holding its tape (every
    # VJP's saved arrays) through them read 1.10x the peak of a call with no coords
    cfg = MMBConfig(16, 4.0, operator="ewmhsa_dwconv", window=7, heads=4, pre_norm="layernorm",
                    expand_act="gelu", operator_norm="batchnorm", operator_act="silu")

    def peak(num_coords):
        tracemalloc.start()
        try:
            grad_check(cfg, seed=0, input_hw=(14, 14), num_coords=num_coords)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0)  # the first call makes one-time allocations
    analytic_only = peak(0)
    assert peak(20) <= 1.02 * analytic_only


def test_grad_check_of_the_gradcheck_workload_mmb_peaks_under_eleven_v_maps():
    # a V-map is the 256-channel expanded map at 28x28. The request peaked at 13.07:
    # in the batchnorm VJP, which held three maps, and in the resumed mix, which held
    # its token copies, attention matrix and two merge copies until it returned
    cfg = MMBConfig(64, 4.0, operator="ewmhsa_dwconv", window=7, heads=4, pre_norm="layernorm",
                    expand_act="gelu", operator_norm="batchnorm", operator_act="silu")
    v_bytes = 256 * 28 * 28 * 8

    def request():
        grad_check(cfg, seed=0, input_hw=(28, 28), num_coords=20)

    request()  # the first call makes one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        request()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 11 * v_bytes, peak / v_bytes


def test_every_leaf_of_emo_1m_at_its_real_widths_passes_the_gradient_oracle():
    # one coordinate of each of the 201 leaves, f64, 64 px; with windows of 3 in
    # stages 3 and 4, stage 3's 4x4 map has four windows, three of them padded,
    # and stage 4's 2x2 map one padded window
    model = build_emo(replace(preset("emo-1m"), windows=(7, 7, 3, 3)), seed=0, precision="f64")
    rng = Rng(4)
    _, stages, leaves = analysis._check_target(model, 4, rng, 64, 64)
    pick = np.random.default_rng(4)
    coords = [(key, int(pick.integers(leaf.size))) for key, leaf in leaves.items() if not is_buffer(key)]
    assert len(coords) == 201  # the input and every parameter but the 20 batchnorms' mean and var
    worst, (leaf, index, stage) = analysis._tape_rel_err(stages, leaves, rng, "cot", coords, 1e-5)
    assert worst < 1e-4, f"{leaf}[{index}], first read by stage {stage}: rel err {worst:.3g}"


def test_whole_model_gradcheck():
    rep = grad_check(_grads_model(), seed=0, input_hw=(32, 32), num_coords=60)
    assert rep.max_rel_err < 1e-4
    assert rep.max_rel_err.hex() == "0x1.05b3937331ba8p-27"  # pinned: the differences keep their bits
