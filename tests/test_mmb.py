import dataclasses

import numpy as np
import pytest

from emo import (IRMBConfig, MMBConfig, Rng, cost_meter, count_costs, grad_check, irmb_forward, mmb_forward,
                 mmb_init_params, mmb_instantiate, random_block_params)
from emo import autograd as ag, irmb, ops
from emo.irmb import block_stages, ew_mhsa
from emo.mmb import OPERATORS
from emo.ops import ConvSpec, CostMeter


def build(cfg, seed=0, precision="f64"):
    return mmb_init_params(cfg, Rng(seed), precision=precision)


def rand_x(cfg, hw=(4, 4), seed=1):
    return Rng(seed).normal("x", (1, cfg.channels, *hw), precision="f64")


def test_lambda_channels_must_be_integer():
    with pytest.raises(ValueError, match="integer"):
        MMBConfig(9, 2.5)
    MMBConfig(8, 2.5)  # 20 channels, fine


def test_groups_must_divide_both_widths():
    with pytest.raises(ValueError, match="expand_groups"):
        MMBConfig(8, 2.0, expand_groups=3)


def test_zero_shrink_makes_block_identity():
    # holds for every operator kind
    for op in ("identity", "dwconv", "ewmhsa", "ewmhsa_dwconv", "dwconv_ewmhsa"):
        cfg = MMBConfig(4, 2.0, operator=op, window=2, heads=2,
                        pre_norm="layernorm", expand_act="gelu",
                        operator_norm="batchnorm" if "dw" in op else "none",
                        operator_act="silu" if "dw" in op else "none")
        params = dict(build(cfg, seed=3))
        for name in params:
            if name.startswith("shrink."):
                params[name] = np.zeros_like(params[name])
        # make the rest non-trivial
        for name in list(params):
            if not name.startswith("shrink.") and name.endswith(".b"):
                params[name] = Rng(9).normal(name, params[name].shape, precision="f64")
        x = rand_x(cfg)
        y = mmb_forward(x, cfg, params)
        assert np.array_equal(y, x), op


def test_identity_everything_doubles_input():
    cfg = MMBConfig(3, 1.0, operator="identity")  # all bindings default to none
    params = build(cfg)
    eye = np.eye(3).reshape(3, 3, 1, 1)
    params = {"expand.w": eye.copy(), "expand.b": np.zeros(3),
              "shrink.w": eye.copy(), "shrink.b": np.zeros(3)}
    x = rand_x(cfg)
    np.testing.assert_allclose(mmb_forward(x, cfg, params), 2 * x, atol=1e-15)


def test_block_matches_hand_composed_primitives():
    cfg = MMBConfig(4, 2.0, operator="identity")
    params = build(cfg, seed=7)
    # generic biases
    params = {k: (Rng(5).normal(k, v.shape, precision="f64") if k.endswith(".b") else v)
              for k, v in params.items()}
    x = rand_x(cfg)
    got = mmb_forward(x, cfg, params)
    e_spec = ConvSpec(4, 8, kernel=1)
    s_spec = ConvSpec(8, 4, kernel=1)
    want = x + ops.conv2d(
        ops.conv2d(x, params["expand.w"], e_spec, params["expand.b"]),
        params["shrink.w"], s_spec, params["shrink.b"],
    )
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_shape_contract_all_operators():
    for op in ("identity", "dwconv", "ewmhsa", "ewmhsa_dwconv", "dwconv_ewmhsa"):
        cfg = MMBConfig(6, 2.0, operator=op, window=2, heads=3)
        y = mmb_forward(rand_x(cfg, hw=(6, 6)), cfg, build(cfg))
        assert y.shape == (1, 6, 6, 6)


# ---------------------------------------------------------------------------
# presets


def test_ffn_preset():
    cfg = mmb_instantiate("ffn", 8, 4.0)
    assert cfg.mid_channels == 32
    assert cfg.operator == "identity"
    assert cfg.pre_norm == "layernorm" and cfg.expand_act == "gelu"


def test_ffn_preset_default_expansion_is_4():
    assert mmb_instantiate("ffn", 8).mid_channels == 32


def test_irb_preset_operator_params_match_dwconv_closed_form():
    cfg = mmb_instantiate("irb", 8, 1.0)
    assert cfg.operator == "dwconv"
    rep = count_costs(cfg, resolution=4)
    dw = [ln for ln in rep.lines if ln.name.endswith(".dw")]
    assert len(dw) == 1 and dw[0].params == (9 + 1) * 8 == 80


def test_mhsa_preset_attention_params_match_closed_form():
    cfg = mmb_instantiate("mhsa", 8)
    assert cfg.mid_channels == 8 and cfg.operator == "ewmhsa"
    rep = count_costs(cfg, resolution=4)
    attn_params = rep.by_category()["attention"]["params"]
    assert attn_params == 4 * (8 + 1) * 8 == 288


def test_mhsa_preset_rejects_expansion():
    with pytest.raises(ValueError, match="channel-consistent"):
        mmb_instantiate("mhsa", 8, 2.0)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        mmb_instantiate("vit", 8)


def test_config_json_round_trip_and_strictness():
    import json
    from pathlib import Path

    import jsonschema

    from emo import mmb_config_from_dict, mmb_config_to_dict

    cfg = MMBConfig(8, 2.0, operator="ewmhsa_dwconv", window=2, heads=2,
                    pre_norm="layernorm", expand_act="gelu")
    doc = mmb_config_to_dict(cfg)
    assert mmb_config_from_dict(doc) == cfg
    schema_path = Path(__file__).resolve().parents[1] / "src" / "emo" / "schemas" / "mmb_config.schema.json"
    jsonschema.validate(doc, json.loads(schema_path.read_text()))
    with pytest.raises(ValueError, match="unknown block config fields"):
        mmb_config_from_dict({**doc, "dropout": 0.1})
    with pytest.raises(ValueError, match="missing"):
        mmb_config_from_dict({"channels": 8})


# operator -> its block's stages in order, "depthwise+" where the depth-wise stage adds its input back
_OPERATOR_STAGES = {
    "identity": "pre_norm expand norm_e act shrink",
    "dwconv": "pre_norm expand norm_e act depthwise shrink",
    "ewmhsa": "pre_norm expand norm_e act qk mix shrink",
    "ewmhsa_dwconv": "pre_norm expand norm_e act qk mix depthwise+ shrink",
    "dwconv_ewmhsa": "pre_norm expand norm_e act depthwise+ qk mix shrink",
}


def test_each_operator_is_one_irmb_config_with_its_stage_order(stage_order):
    assert set(_OPERATOR_STAGES) == set(OPERATORS)
    for op, want in _OPERATOR_STAGES.items():
        irmb_cfg = MMBConfig(8, 2.0, operator=op, window=2, heads=2)._as_irmb(4, 4)
        assert isinstance(irmb_cfg, IRMBConfig)
        assert stage_order(irmb_cfg) == want, op


def test_executed_work_matches_static_count(fold_metered):
    # closes the oracle loop: closed form == static walk == metered execution,
    # for the MMB operators and the iRMB placements (5x5 under 2x2 windows pads them)
    mmbs = (
        MMBConfig(8, 1.0, operator="ewmhsa", heads=1),
        MMBConfig(8, 2.0, operator="ewmhsa_dwconv", window=2, heads=2,
                  pre_norm="layernorm", expand_act="gelu",
                  operator_norm="batchnorm", operator_act="silu"),
        mmb_instantiate("irb", 8, 2.0),
        *(MMBConfig(8, 2.0, operator=op, window=2, heads=2, pre_norm="layernorm",
                    expand_norm="layernorm", expand_act="gelu",
                    operator_norm="layernorm", operator_act="silu") for op in OPERATORS),
    )
    irmbs = (
        IRMBConfig(8, 8, 2.0, window=2, heads=2),
        IRMBConfig(8, 8, 2.0, window=2, heads=2, attn_at="expand"),
        IRMBConfig(8, 8, 2.0, window=2, heads=2, attn_at="depthwise"),
        IRMBConfig(8, 16, 2.0, window=2, heads=2, stride=2, expand_groups=2),
        IRMBConfig(8, 8, 2.0, window=2, heads=2, enable_conv=False, attn_at="act"),
        IRMBConfig(8, 8, 2.0, enable_attn=False),
    )
    cases = [(cfg, 4, build(cfg), mmb_forward, cfg._as_irmb(4, 4)) for cfg in mmbs]
    cases += [(cfg, 5, random_block_params(cfg, 0), irmb_forward, cfg) for cfg in irmbs]
    for cfg, res, params, forward, irmb_cfg in cases:
        x = Rng(1).normal("x", (1, irmb_cfg.in_channels, res, res), precision="f64")
        with cost_meter() as m:
            forward(x, cfg, params)
        rep = count_costs(cfg, res)
        for field in dataclasses.fields(CostMeter):
            assert getattr(m, field.name) == getattr(rep, field.name), (cfg, field.name)
        assert m.flops == rep.flops, cfg
        stages = block_stages(irmb_cfg, "")
        _, checks = fold_metered(stages, x, params, (res, res))
        assert checks >= 6 * 5, cfg
        # the Q/K projections' lines sit on the qk stage, the attention matrix's
        # on the mix, and the expansion stage runs only its conv
        lines = {st.name: [ln.name for ln in st.lines(res, res)] for st in stages}
        assert lines["expand"] == ["expand"], cfg
        if irmb_cfg.enable_attn:
            assert lines["qk"] == ["q", "k"] and lines["mix"] == ["attn"], cfg
        else:
            assert "qk" not in lines and "mix" not in lines, cfg


@pytest.mark.parametrize("operator", OPERATORS)
def test_metered_residual_adds_match_static_count(operator):
    # 5x5 under 2x2 windows: the attention operators run padded windows
    cfg = MMBConfig(8, 2.0, operator=operator, window=2, heads=2, pre_norm="layernorm",
                    operator_norm="batchnorm", operator_act="silu")
    with cost_meter() as m:
        mmb_forward(rand_x(cfg, hw=(5, 5)), cfg, build(cfg))
    rep = count_costs(cfg, 5)
    for field in dataclasses.fields(CostMeter):
        assert getattr(m, field.name) == getattr(rep, field.name), field.name


def test_activate_dispatcher():
    x = np.random.default_rng(0).normal(size=(1, 4, 3, 3))
    np.testing.assert_array_equal(ag.activate(x, "silu"), ops.silu(x))
    np.testing.assert_array_equal(ag.activate(x, "gelu"), ops.gelu(x))
    assert ag.activate(x, "none") is x
    with pytest.raises(ValueError, match="activation"):
        ag.activate(x, "relu")


def test_composed_block_against_independent_pointwise_chain():
    # C=4, lambda=2, F=identity, random weights: mmb output must equal an
    # independently composed chain of pointwise conv calls
    cfg = MMBConfig(4, 2.0, operator="identity", pre_norm="layernorm", expand_act="gelu")
    params = build(cfg, seed=11)
    x = rand_x(cfg, seed=2)
    got = mmb_forward(x, cfg, params)
    u = ops.layernorm_channels(x, params["norm_pre.g"], params["norm_pre.b"])
    xe = ops.conv2d(u, params["expand.w"], ConvSpec(4, 8, kernel=1), params["expand.b"])
    xe = ops.gelu(xe)
    xs = ops.conv2d(xe, params["shrink.w"], ConvSpec(8, 4, kernel=1), params["shrink.b"])
    np.testing.assert_allclose(got, x + xs, atol=1e-10)


def test_bad_kernel_and_heads_rejected_at_construction():
    from emo import mmb_config_from_dict

    for op in OPERATORS:
        if "dwconv" in op:
            with pytest.raises(ValueError, match="kernel"):
                MMBConfig(4, 2.0, operator=op, kernel=4)
            with pytest.raises(ValueError, match="kernel"):
                mmb_config_from_dict({"channels": 4, "expansion_ratio": 2.0, "operator": op, "kernel": 4})
        else:
            MMBConfig(4, 2.0, operator=op, kernel=4)  # the kernel is not read
    for heads in (0, -2):
        with pytest.raises(ValueError, match="heads"):
            MMBConfig(4, 2.0, operator="ewmhsa", heads=heads)


def _global_attention(u, v, params, heads):
    """Softmax attention over the whole map: per-head Q/K from u, values v."""
    n, c, h, w = u.shape
    spec = ConvSpec(c, c, kernel=1)
    q = ops.conv2d(u, params["q.w"], spec, params["q.b"]).reshape(n, heads, c // heads, h * w)
    k = ops.conv2d(u, params["k.w"], spec, params["k.b"]).reshape(n, heads, c // heads, h * w)
    vh = v.reshape(n, heads, v.shape[1] // heads, h * w)
    attn = ops.softmax_lastdim(ops.matmul(q.transpose(0, 1, 3, 2), k) / np.sqrt(c // heads))
    return ops.matmul(attn, vh.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2).reshape(v.shape)


@pytest.mark.parametrize("operator", OPERATORS)
def test_every_operator_matches_independent_primitive_chain(operator):
    # window=None is one window over the whole 5x5 map; dwconv has no inner
    # skip, ewmhsa mixes after the expansion activation, the cascades keep it
    cfg = MMBConfig(4, 2.0, operator=operator, heads=2, pre_norm="layernorm",
                    expand_norm="batchnorm", expand_act="gelu",
                    operator_norm="batchnorm", operator_act="silu")
    rng = Rng(21)
    p = {name: (0.5 + rng.uniform(name, v.shape, precision="f64")) if name.endswith(".var")
         else rng.normal(name, v.shape, std=0.5, precision="f64")
         for name, v in build(cfg).items()}
    x = rand_x(cfg, hw=(5, 5), seed=4)

    def bn(t, slot):
        return ops.batchnorm_inference(t, p[slot + ".g"], p[slot + ".b"], p[slot + ".mean"], p[slot + ".var"])

    def dw(t):
        t = ops.conv2d(t, p["dw.w"], ConvSpec(8, 8, kernel=3, padding=1, groups=8), p["dw.b"])
        return ops.silu(bn(t, "norm_dw"))

    u = ops.layernorm_channels(x, p["norm_pre.g"], p["norm_pre.b"])
    xe = ops.gelu(bn(ops.conv2d(u, p["expand.w"], ConvSpec(4, 8, kernel=1), p["expand.b"]), "norm_e"))
    if operator == "identity":
        f = xe
    elif operator == "dwconv":
        f = dw(xe)
    elif operator == "ewmhsa":
        f = _global_attention(u, xe, p, 2)
    elif operator == "ewmhsa_dwconv":
        a = _global_attention(u, xe, p, 2)
        f = a + dw(a)
    else:
        f = _global_attention(u, xe + dw(xe), p, 2)
    want = x + ops.conv2d(f, p["shrink.w"], ConvSpec(8, 4, kernel=1), p["shrink.b"])
    np.testing.assert_allclose(mmb_forward(x, cfg, p), want, rtol=0, atol=1e-10)


def test_bare_block_forwards_build_each_stage_list_once():
    # the list is cached per config value, and an MMB's config is equal at equal
    # map sizes: a repeated call builds none and gives the first call's bits
    irmb.block_stages.cache_clear()  # a config equal to one below may be cached already

    def built():
        return irmb.block_stages.cache_info().misses

    mcfg = MMBConfig(8, 2.0, operator="ewmhsa_dwconv", heads=2,  # one window: its size is the map's
                     pre_norm="layernorm", operator_norm="batchnorm", operator_act="silu")
    icfg = IRMBConfig(8, 8, 2.0, window=4, heads=2)
    x8, x4 = rand_x(mcfg, (8, 8)), rand_x(mcfg, (4, 4))
    calls = [(mmb_forward, x8, mcfg, random_block_params(mcfg._as_irmb(8, 8), 5)),
             (mmb_forward, x4, mcfg, random_block_params(mcfg._as_irmb(4, 4), 5)),
             (irmb_forward, x8, icfg, random_block_params(icfg, 6)),
             (ew_mhsa, x8, IRMBConfig(8, 8, 2.0, window=2, heads=2), random_block_params(icfg, 6))]
    for forward, x, cfg, params in calls:
        before = built()
        first = forward(x, cfg, params)
        assert built() == before + 1, forward.__name__
        assert forward(x, cfg, params).tobytes() == first.tobytes()
        assert built() == before + 1, forward.__name__
    # the cost counter and the gradient check read the same cache
    for analyse in (lambda: count_costs(mcfg, 8), lambda: grad_check(mcfg, input_hw=(8, 8), num_coords=2)):
        first = analyse()
        before = built()
        assert analyse() == first and built() == before
