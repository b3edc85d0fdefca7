import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from emo import (
    EMOVariantConfig,
    PRESETS,
    Rng,
    Tensor,
    build_emo,
    cost_meter,
    count_costs,
    dumps_params,
    emo_forward,
    load_model,
    preset,
    save_model,
    stage_features,
)
from emo import autograd as ag
from emo import cli
from emo.autograd import conv2d, mean_hw
from emo.irmb import block_stages, run_stages
from emo.model import model_stages, stages_through

TINY = EMOVariantConfig("tiny", (1, 1, 2, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0), num_classes=10)


def test_preset_tables():
    cfg = preset("emo-1m")
    assert cfg.depths == (2, 2, 8, 3)
    assert cfg.dims == (32, 48, 80, 168)
    assert cfg.exp_ratios == (2.0, 2.5, 3.0, 3.5)
    cfg = preset("emo-2m")
    assert cfg.depths == (3, 3, 9, 3)
    assert cfg.dims == (32, 48, 120, 200)
    cfg = preset("emo-5m")
    assert cfg.dims == (48, 72, 160, 288)
    assert cfg.exp_ratios == (2.0, 3.0, 4.0, 4.0)
    assert preset("emo-6m").dims[3] == 320


def test_emo1m_has_15_blocks():
    assert len(build_emo("emo-1m").cfg.blocks) == 2 + 2 + 8 + 3 == 15


def test_emo5m_stage4_widths():
    stage4 = [b for _, s, b in preset("emo-5m").blocks if s == 4]
    assert all(b.out_channels == 288 for b in stage4)
    assert all(b.mid == 1152 for b in stage4)


def test_attention_only_in_stages_3_and_4():
    for name in PRESETS:
        for _, stage, bcfg in preset(name).blocks:
            assert bcfg.enable_attn == (stage in (3, 4))
            assert bcfg.enable_conv


def _conv_params(spec):
    """out * in/groups * k^2 weights, plus a bias per output channel if it has one."""
    return spec.out_channels * spec.in_channels // spec.groups * spec.kernel ** 2 + spec.out_channels * spec.bias


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_costs_and_parameters_walk_the_one_block_list(name):
    cfg = preset(name)
    rep = count_costs(cfg)
    assert list(rep.by_block()) == ["stem", *(block for block, _s, _c in cfg.blocks), "head"]
    # each line's params against the closed forms: a conv's formula, 2 * width for a norm's affine
    expected = {"stem.conv": _conv_params(cfg.stem_spec()), "stem.bn": 2 * cfg.dims[0],
                "head": _conv_params(cfg.head_spec())}
    for block, _s, bcfg in cfg.blocks:
        expected |= {f"{block}.{conv}": _conv_params(spec) for conv, spec in bcfg.conv_specs().items()}
        widths = {"norm_pre": bcfg.in_channels, "norm_e": bcfg.mid, "norm_dw": bcfg.mid}
        expected |= {f"{block}.{norm}": 2 * width for norm, width in widths.items()}
    for line in rep.lines:
        if line.params:
            assert line.params == expected[line.name], line.name
    trainable = [math.prod(shape) for leaf, shape in cfg.param_shapes().items() if not leaf.endswith((".mean", ".var"))]
    assert rep.params == sum(trainable)


def test_stage_monotonicity_of_presets():
    for name in PRESETS:
        cfg = preset(name)
        assert list(cfg.dims) == sorted(cfg.dims)
        assert list(cfg.exp_ratios) == sorted(cfg.exp_ratios)


def test_same_seed_builds_bit_identical_containers():
    a = dumps_params(build_emo(TINY, seed=42).params, "f32")
    b = dumps_params(build_emo(TINY, seed=42).params, "f32")
    c = dumps_params(build_emo(TINY, seed=43).params, "f32")
    assert a == b
    assert a != c


def test_zero_input_gives_class_symmetric_logits():
    model = build_emo(TINY, seed=0, precision="f64")
    logits = emo_forward(model, Tensor.zeros((1, 3, 64, 64), precision="f64"))
    assert logits.shape == (1, 10)
    assert np.all(logits == logits[0, 0])


def test_batch_items_are_independent_and_identical_rows_match():
    model = build_emo(TINY, seed=1, precision="f64")
    x = np.random.default_rng(0).normal(size=(1, 3, 64, 64))
    two = np.concatenate([x, x], axis=0)
    y2 = emo_forward(model, two)
    assert np.array_equal(y2[0], y2[1])
    y1 = emo_forward(model, x)
    np.testing.assert_allclose(y1[0], y2[0], atol=1e-6)


def test_resolution_must_be_multiple_of_32():
    model = build_emo(TINY, seed=0)
    with pytest.raises(ValueError, match="multiples of 32"):
        emo_forward(model, np.zeros((1, 3, 60, 60), dtype=np.float32))
    with pytest.raises(ValueError, match="multiples of 32"):
        count_costs(TINY, 50)


def test_forward_trace_matches_static_count_exactly():
    model = build_emo(TINY, seed=0, precision="f32")
    x = np.zeros((1, 3, 96, 96), dtype=np.float32)
    with cost_meter() as meter:
        emo_forward(model, x)
    rep = count_costs(TINY, 96)
    _assert_meter_equals_static(meter, rep, batch=1)
    assert meter.flops == rep.flops


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_forward_trace_matches_static_count_every_preset_at_224(name, fold_metered):
    model = build_emo(name, seed=0, precision="f32")
    x = np.zeros((1, 3, 224, 224), dtype=np.float32)
    stages = model_stages(model.cfg)
    # stage by stage, on every meter field, each stage's meter nested in the whole fold's
    with cost_meter() as meter:
        folded, checks = fold_metered(stages, x, model.params, (224, 224))
    # the stem, the head, six stages per block and the qk + mix pair of each attention block
    assert checks == 6 * len(stages) == 6 * (2 + sum(6 + 2 * bcfg.enable_attn for *_, bcfg in model.cfg.blocks))
    rep = count_costs(preset(name), 224)
    _assert_meter_equals_static(meter, rep, batch=1)
    assert meter.flops == rep.flops
    assert folded.tobytes() == emo_forward(model, x).tobytes()


def _assert_meter_equals_static(meter, rep, batch):
    """Every CostMeter field against batch x the report's count of the same name."""
    for field in dataclasses.fields(meter):
        assert getattr(meter, field.name) == batch * getattr(rep, field.name), field.name


@pytest.mark.parametrize("name, resolution", [(n, 224) for n in sorted(PRESETS)] + [("emo-1m", 160)])
def test_metered_residual_adds_match_static_count(name, resolution):
    # at 160, stages 3 and 4 are 10x10 and 5x5, so their 7x7 windows are padded
    model = build_emo(name, seed=0, precision="f32")
    with cost_meter() as meter:
        emo_forward(model, np.zeros((2, 3, resolution, resolution), dtype=np.float32))
    _assert_meter_equals_static(meter, count_costs(preset(name), resolution), batch=2)


@pytest.mark.parametrize("field, value", [("depths", [1, 1, 2, 1]), ("windows", [7, 7, 7, 7]),
                                          ("attn_stages", {3, 4})])
def test_an_unhashable_field_is_rejected_at_construction(field, value):
    # the config keys the stage-list cache, so a list or set would fail only at the first forward
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(TINY, **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("windows", (0, 7, 7, 7), "stage 1: window"),
    ("exp_ratios", (2.0, 0.0, 2.0, 2.0), "stage 2: expansion_ratio"),
    ("exp_ratios", (2.0, 2.0, -1.0, 2.0), "stage 3: expansion_ratio"),
    ("dims", (8, 8, 16, 0), "stage 4: channel counts"),
])
def test_a_block_field_out_of_range_is_rejected_at_construction(field, value, message):
    # every block's IRMBConfig is made with the variant, so its checks name the stage before any forward
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(TINY, **{field: value})


def test_lambda_dim_mismatch_names_the_stage():
    with pytest.raises(ValueError, match="stage 2"):
        EMOVariantConfig("bad", (1, 1, 1, 1), (8, 9, 16, 16), (2.0, 2.5, 2.0, 2.0))


def test_save_load_forward_bit_identical(tmp_path):
    model = build_emo(TINY, seed=5, precision="f32")
    x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 64, 64)), precision="f32")
    y0 = emo_forward(model, x)
    path = tmp_path / "tiny.emow"
    save_model(model, path)
    again = load_model(TINY, path)
    assert again.precision == "f32"
    y1 = emo_forward(again, x)
    assert y0.tobytes() == y1.tobytes()


def test_load_rejects_mismatched_config(tmp_path):
    model = build_emo(TINY, seed=5)
    path = tmp_path / "tiny.emow"
    save_model(model, path)
    other = EMOVariantConfig("other", (1, 1, 1, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0))
    with pytest.raises(Exception, match="does not match"):
        load_model(other, path)


def test_loaded_model_claims_no_seed(tmp_path):
    path = tmp_path / "tiny.emow"
    save_model(build_emo(TINY, seed=5), path)
    assert load_model(TINY, path).seed is None


def test_load_model_draws_no_weights(tmp_path, monkeypatch):
    path = tmp_path / "tiny.emow"
    save_model(build_emo(TINY, seed=5), path)

    def no_draws(self, name):
        raise AssertionError(f"load_model drew the weight stream {name!r}")

    monkeypatch.setattr(Rng, "stream", no_draws)
    loaded = load_model(TINY, path)
    assert {k: v.shape for k, v in loaded.params.items()} == TINY.param_shapes()


def test_stage_features_shapes():
    model = build_emo(TINY, seed=0, precision="f64")
    x = np.random.default_rng(2).normal(size=(1, 3, 64, 64))
    for stage, (c, r) in {1: (8, 16), 2: (8, 8), 3: (16, 4), 4: (16, 2)}.items():
        f = stage_features(model, x, stage)
        assert f.shape == (1, c, r, r)


def test_stage_features_resume_to_the_full_forward():
    model = build_emo(TINY, seed=1, precision="f64")
    p = model.params
    x = np.random.default_rng(3).normal(size=(2, 3, 64, 64))
    logits = emo_forward(model, x)
    for stage in (1, 2, 3, 4):
        v = stage_features(model, x, stage)
        for name, s, bcfg in TINY.blocks:
            if s > stage:
                v = run_stages(block_stages(bcfg, name + "."), v, p)
        pooled = mean_hw(v)
        head = conv2d(pooled.reshape(*pooled.shape, 1, 1), p["head.w"], TINY.head_spec(), p["head.b"])
        assert head.reshape(logits.shape).tobytes() == logits.tobytes()


def test_stage_features_stop_at_the_requested_stage():
    model = build_emo(TINY, seed=1, precision="f64")
    x = np.random.default_rng(3).normal(size=(1, 3, 64, 64))
    with cost_meter() as full:
        emo_forward(model, x)
    with cost_meter() as first:
        stage_features(model, x, 1)
    assert 0 < first.macs < full.macs
    with cost_meter() as last:
        stage_features(model, x, 4)
    assert first.macs < last.macs < full.macs  # the head never runs


def test_the_stage_list_is_built_once_per_config():
    cfg = dataclasses.replace(TINY, windows=(7, 7, 3, 3))
    stages = model_stages(cfg)
    assert isinstance(stages, tuple) and model_stages(cfg) is stages
    assert model_stages(dataclasses.replace(TINY, windows=(7, 7, 3, 3))) is stages  # an equal config shares it
    other = model_stages(dataclasses.replace(TINY, windows=(7, 7, 7, 3)))  # a differing config gets its own
    assert other is not stages and [st.window for st in other if st.name.endswith(".mix")] == [7, 7, 3]
    assert stages_through(cfg, 4) == stages[:-1]
    assert stages_through(cfg, 1) == stages[:1 + sum(st.name.startswith("s1.") for st in stages)]


def test_weights_are_read_only():
    model = build_emo(TINY, seed=0)
    with pytest.raises(ValueError):
        model.params["head.b"][0] = 1.0


def test_forward_is_bit_deterministic():
    model = build_emo(TINY, seed=3, precision="f32")
    x = np.random.default_rng(4).normal(size=(1, 3, 64, 64)).astype(np.float32)
    assert emo_forward(model, x).tobytes() == emo_forward(model, x).tobytes()


def test_concurrent_forwards_share_the_model_safely():
    from concurrent.futures import ThreadPoolExecutor

    model = build_emo(TINY, seed=6, precision="f64")
    inputs = [np.random.default_rng(s).normal(size=(1, 3, 64, 64)) for s in range(6)]
    serial = [emo_forward(model, x) for x in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda x: emo_forward(model, x), inputs))
    for a, b in zip(serial, parallel):
        assert a.tobytes() == b.tobytes()


# sha256 of bytes that a change of structure must keep: emo-1m (seed 0) at 64 px,
# batch 2, on the input stream "pin.x" of Rng(7); the saliency cotangent picks
# classes 3 and 517; the costs are every preset's `as_dict()` at 224 and 320;
# describe is the stdout of `emo describe` for every preset at 224, in name
# order, and gradcheck that of `emo gradcheck --target all --seed 0`
PINNED_SHA256 = {
    "logits-f32": "abb3f8f2afa74369146ad5f5105353b8e50cf290fe928974d51d774390535ca4",
    "logits-f64": "ff861fccde356bbb3362e816c6068ec5800cdfa614f72490710085ca352d4a88",
    "saliency-f64": "5eeae4528a450e1977fa05ec4b72e8a8e94b6ccad42feb4fba0d0ba54134d2b2",
    "costs": "888981b8d10f7fd09bb0f033cf66822da6363f14a2970336611ce51c05723645",
    "describe": "9bf0870f2d0ce6a705e02fcd184201d2187d687c3b65e6f3b9a8699939c4646d",
    "gradcheck": "22fef6d7a06ccd5146037646bd3406ed557009731aac5925a1ea252796c97683",
}
_PINNED_ARGV = {
    "describe": [["describe", "--preset", n, "--resolution", "224"] for n in sorted(PRESETS)],
    "gradcheck": [["gradcheck", "--target", "all", "--seed", "0"]],
}


@pytest.mark.parametrize("case", sorted(PINNED_SHA256))
def test_output_bits_are_pinned(case, capsys):
    if case in _PINNED_ARGV:
        assert all(cli.main(argv) == 0 for argv in _PINNED_ARGV[case])
        data = capsys.readouterr().out.encode()
    elif case == "costs":
        doc = {f"{n}@{r}": count_costs(preset(n), r).as_dict() for n in sorted(PRESETS) for r in (224, 320)}
        data = json.dumps(doc).encode()
    else:
        kind, precision = case.split("-")
        model = build_emo("emo-1m", seed=0, precision=precision)
        x = Rng(7).normal("pin.x", (2, 3, 64, 64), precision=precision)
        if kind == "logits":
            data = emo_forward(model, x).tobytes()
        else:
            xv = ag.Var(x)
            cot = np.zeros((2, model.cfg.num_classes))
            cot[[0, 1], [3, 517]] = 1.0
            data = ag.grad_of(ag.backward(emo_forward(model, xv), cot), xv).tobytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256[case]
