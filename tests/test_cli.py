import json
from pathlib import Path

import numpy as np
import pytest

from emo import cli
from emo.cli import main
from emo.serialize import save_raw_tensor

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "emo" / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture(scope="module")
def validator():
    import jsonschema

    with open(SCHEMA_DIR / "reports.schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    return lambda doc: jsonschema.validate(doc, schema)


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "depths": [1, 1, 1, 1],
        "dims": [8, 8, 16, 16],
        "exp_ratios": [2.0, 2.0, 2.0, 2.0],
        "num_classes": 10,
    }))
    return str(path)


def test_count_preset_reports_published_scale(capsys, validator):
    code, doc = run_json(capsys, "count", "--preset", "emo-5m", "--resolution", "224")
    assert code == 0
    validator(doc)
    assert abs(doc["totals"]["params"] / 5.1e6 - 1) < 0.05
    assert abs(doc["totals"]["macs"] / 903e6 - 1) < 0.10


def test_equiv_command(capsys, validator):
    code, doc = run_json(capsys, "equiv", "--channels", "8", "--heads", "4",
                         "--groups", "4", "--lambda", "2", "--seed", "7")
    assert code == 0
    validator(doc)
    assert doc["holds"] is True
    assert doc["max_abs_diff"] < 1e-10


def test_forward_zero_input_constant_logits(capsys, validator, tiny_config):
    code, doc = run_json(capsys, "forward", "--config", tiny_config,
                         "--resolution", "64", "--seed", "0", "--input", "zeros")
    assert code == 0
    validator(doc)
    row = doc["logits"][0]
    assert len(set(row)) == 1


def test_forward_raw_tensor_input(capsys, validator, tiny_config, tmp_path):
    arr = np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32)
    raw = tmp_path / "input.bin"
    save_raw_tensor(raw, arr)
    code, doc = run_json(capsys, "forward", "--config", tiny_config,
                         "--resolution", "64", "--input", str(raw))
    assert code == 0
    validator(doc)
    assert doc["shape"] == [1, 10]


def test_describe_lists_every_block(capsys, validator):
    code, doc = run_json(capsys, "describe", "--preset", "emo-1m")
    assert code == 0
    validator(doc)
    assert len(doc["blocks"]) == 15
    stage3 = [b for b in doc["blocks"] if b["stage"] == 3]
    assert all(b["enable_attn"] for b in stage3)
    assert doc["blocks"][0]["input_resolution"] == 112


def test_influence_command_modes_agree(capsys, validator):
    code, doc = run_json(capsys, "influence", "--blocks", "2", "--kernel", "3",
                         "--resolution", "9", "--source", "4,4", "--attn", "off", "--mode", "both")
    assert code == 0
    validator(doc)
    assert doc["modes_agree"] is True
    assert doc["count"] == 25


def test_mpl_command(capsys, validator):
    code, doc = run_json(capsys, "mpl", "--kind", "attn", "--window", "2", "--resolution", "8")
    assert code == 0
    validator(doc)
    assert doc["empirical"] is None and doc["reachable"] is False


def test_gradcheck_command(capsys, validator):
    code, doc = run_json(capsys, "gradcheck", "--target", "mlp", "--seed", "0")
    assert code == 0
    validator(doc)
    assert doc["passed"] is True


def test_similarity_command(capsys, validator, tiny_config):
    code, doc = run_json(capsys, "similarity", "--config", tiny_config,
                         "--resolution", "224", "--stage", "3", "--seed", "1")
    assert code == 0
    validator(doc)
    assert doc["similarities"][0] == 1.0


def test_bench_command(capsys, validator, tiny_config):
    code, doc = run_json(capsys, "bench", "--config", tiny_config,
                         "--resolution", "64", "--runs", "3")
    assert code == 0
    validator(doc)
    assert doc["runs"] == 3
    assert "reproduces no published figures" in doc["note"]
    faults = doc["page_faults_per_forward"]
    assert (faults is None) == (cli.resource is None)
    assert faults is None or faults >= 0


def test_byte_stability_of_outputs(capsys, tiny_config):
    args = ("forward", "--config", tiny_config, "--resolution", "64", "--seed", "3",
            "--input", "noise", "--precision", "f32")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    _, c1 = run(capsys, "count", "--preset", "emo-2m")
    _, c2 = run(capsys, "count", "--preset", "emo-2m")
    assert c1 == c2


def test_out_flag_writes_same_document(capsys, tmp_path, tiny_config):
    out = tmp_path / "report.json"
    _, doc = run_json(capsys, "count", "--config", tiny_config, "--out", str(out))
    assert json.loads(out.read_text()) == doc


# ---------------------------------------------------------------------------
# error paths


def test_unknown_preset_is_config_error(capsys, validator):
    code, doc = run_json(capsys, "count", "--preset", "emo-9m")
    assert code == 2
    validator(doc)
    assert doc["error"]["code"] == "config"


def test_preset_and_config_are_mutually_exclusive(capsys, tiny_config):
    code, doc = run_json(capsys, "count", "--preset", "emo-1m", "--config", tiny_config)
    assert code == 2
    assert "mutually exclusive" in doc["error"]["message"]


def test_unknown_config_field_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"depths": [1, 1, 1, 1], "dims": [8, 8, 8, 8],
                                "exp_ratios": [2, 2, 2, 2], "dropout": 0.1}))
    code, doc = run_json(capsys, "count", "--config", str(path))
    assert code == 2
    assert "unknown config fields" in doc["error"]["message"]


def test_missing_config_field_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"depths": [1, 1, 1, 1], "dims": [8, 8, 8, 8]}))
    code, doc = run_json(capsys, "count", "--config", str(path))
    assert code == 2
    assert "missing config fields" in doc["error"]["message"]


def test_bad_resolution_is_config_error(capsys):
    code, doc = run_json(capsys, "count", "--preset", "emo-1m", "--resolution", "100")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("equiv", "--channels", "8", "--heads", "3"), "heads=3 must"),
    (("influence", "--kernel", "2"), "kernel must be odd"),
    (("mpl", "--kind", "conv", "--kernel", "4"), "kernel must be odd"),
])
def test_bad_block_config_is_config_error(capsys, validator, argv, message):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    validator(doc)
    assert doc["error"]["code"] == "config"
    assert message in doc["error"]["message"]


@pytest.mark.parametrize("depths, message", [
    ([None, 1, 1, 1], "NoneType"),     # int(None) raises TypeError
    ([0, 1, 1, 1], "must be positive"),  # the config itself raises ValueError
])
def test_bad_config_value_is_config_error(capsys, validator, tmp_path, depths, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"depths": depths, "dims": [8, 8, 16, 16], "exp_ratios": [2, 2, 2, 2]}))
    code, doc = run_json(capsys, "count", "--config", str(path))
    assert code == 2
    validator(doc)
    assert doc["error"]["code"] == "config"
    assert message in doc["error"]["message"]


def test_forward_rejects_wrong_channel_raw_tensor(capsys, tiny_config, tmp_path):
    arr = np.zeros((1, 5, 64, 64), dtype=np.float32)
    raw = tmp_path / "bad.bin"
    save_raw_tensor(raw, arr)
    code, doc = run_json(capsys, "forward", "--config", tiny_config, "--input", str(raw))
    assert code == 2
    assert "input tensor" in doc["error"]["message"]


def test_forward_truncated_raw_tensor_is_config_error(capsys, tiny_config, tmp_path):
    raw = tmp_path / "cut.bin"
    save_raw_tensor(raw, np.zeros((1, 3, 64, 64), dtype=np.float32))
    raw.write_bytes(raw.read_bytes()[:13])  # cut inside the first dimension
    code, doc = run_json(capsys, "forward", "--config", tiny_config, "--input", str(raw))
    assert code == 2
    assert "truncated" in doc["error"]["message"]


def test_influence_with_attention_enabled(capsys, validator):
    code, doc = run_json(capsys, "influence", "--blocks", "1", "--window", "4",
                         "--attn", "on", "--conv", "off", "--resolution", "8",
                         "--source", "0,0", "--mode", "both")
    assert code == 0
    validator(doc)
    assert doc["modes_agree"] is True
    assert doc["count"] == 16  # one 4x4 window


def test_config_schema_file_accepts_valid_and_rejects_unknown(tiny_config):
    import jsonschema

    with open(SCHEMA_DIR / "variant_config.schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(json.loads(Path(tiny_config).read_text()), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"depths": [1, 1, 1, 1], "dims": [8, 8, 8, 8],
                             "exp_ratios": [2, 2, 2, 2], "bogus": 1}, schema)
