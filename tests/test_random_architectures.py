"""A seeded sweep of random architectures through every oracle.

Each draw is a variant-config document, the one `emo --config` reads. Its
model runs through: per-stage static == metered, the fold's bits against
`emo_forward`'s, `grad_check` (an f32 model's through its f64 twin), a
save/load round trip, and `emo describe`'s block input sizes against the
fold's map sizes. A failing draw prints its document, so
`emo <command> --config` can rerun it.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from emo import build_emo, emo_forward, grad_check
from emo.model import EMOModel, load_model, model_stages, save_model
from emo.cli import main, parse_variant_config
from emo.tensor import dtype_of

DRAWS = 24


def _draw(i: int) -> tuple[dict, int]:
    """(variant-config document, input resolution) of draw i."""
    rng = np.random.default_rng([0x5EED, i])
    pick = lambda options, n=4: [options[j] for j in rng.integers(len(options), size=n)]
    doc = {
        "name": f"draw{i}",
        "depths": [int(d) for d in rng.integers(1, 3, size=4)],
        "dims": pick(range(4, 25, 2)),  # even, so every ratio below gives an integer mid width
        "exp_ratios": pick([1.0, 1.5, 2.0, 2.5, 3.0]),
        "attn_stages": sorted(s for s in range(1, 5) if rng.random() < 0.5),
        "windows": pick([1, 2, 3, 5, 7]),
        "num_classes": int(rng.integers(1, 11)),
        "head_dim": pick([2, 4, 8, 32], 1)[0],
    }
    return doc, int(rng.choice([32, 64, 96]))


def _check_draw(doc: dict, resolution: int, precision: str, tmp_path, capsys, fold_metered):
    cfg = parse_variant_config(doc)
    model = build_emo(cfg, seed=1, precision=precision)
    x = np.random.default_rng(2).normal(size=(2, 3, resolution, resolution)).astype(dtype_of(precision))

    # per-stage static == metered, noting the map size each block's first stage reads
    sizes = {}

    def noted(st):
        block = st.name.rsplit(".", 1)[0]

        def fn(state, params):
            if block not in sizes:  # a block's first stage reads its bare input map
                sizes[block] = state.shape[-1]
            return st.fn(state, params)

        return replace(st, fn=fn)

    out, _ = fold_metered([noted(st) for st in model_stages(cfg)], x, model.params,
                          (resolution, resolution), batch=2)
    assert out.tobytes() == emo_forward(model, x).tobytes()

    rep = grad_check(model, seed=3, input_hw=(resolution, resolution), num_coords=16)
    assert rep.max_rel_err < 1e-4, rep

    path = tmp_path / "model.emo"
    save_model(model, path)
    assert emo_forward(load_model(cfg, path), x).tobytes() == out.tobytes()

    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(config), "--resolution", str(resolution)]) == 0
    described = json.loads(capsys.readouterr().out)
    assert {b["name"]: b["input_resolution"] for b in described["blocks"]} == {
        name: sizes[name] for name, _, _ in cfg.blocks}


@pytest.mark.parametrize("i", range(DRAWS))
def test_random_architecture_passes_every_oracle(i, tmp_path, capsys, fold_metered):
    doc, resolution = _draw(i)
    precision = ("f64", "f32")[i % 2]
    try:
        _check_draw(doc, resolution, precision, tmp_path, capsys, fold_metered)
    except Exception as exc:
        raise AssertionError(f"draw {i} ({precision}, {resolution} px) fails; its config document:\n"
                             f"{json.dumps(doc)}") from exc


@pytest.mark.parametrize("i", [1, 3])
def test_an_f32_model_is_gradient_checked_through_its_f64_twin(i):
    # the twin is the same config with the f32 weights upcast: its report is
    # the f32 model's, bit for bit, and it passes the f64 bound
    doc, resolution = _draw(i)
    model = build_emo(parse_variant_config(doc), seed=1, precision="f32")
    twin = EMOModel(model.cfg, "f64", model.seed, {k: v.astype(np.float64) for k, v in model.params.items()})
    reps = [grad_check(m, seed=3, input_hw=(resolution, resolution), num_coords=16) for m in (model, twin)]
    got, want = ((r.max_rel_err.hex(), r.worst_leaf, r.worst_index, r.worst_stage) for r in reps)
    assert got == want
    assert reps[0].max_rel_err < 1e-4, reps[0]
