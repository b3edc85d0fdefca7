import argparse
import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from emo import (PRESETS, CostMeter, EMOVariantConfig, MMBConfig, analysis, cli, mmb_config_from_dict,
                 mmb_config_to_dict, mmb_instantiate)
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


TINY_CONFIG = {
    "name": "tiny",
    "depths": [1, 1, 1, 1],
    "dims": [8, 8, 16, 16],
    "exp_ratios": [2.0, 2.0, 2.0, 2.0],
    "num_classes": 10,
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
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


@pytest.mark.parametrize("command", [("forward",), ("similarity",), ("bench", "--runs", "1")],
                         ids=lambda argv: argv[0])
def test_forward_raw_tensor_input(capsys, validator, tiny_config, tmp_path, command):
    # the input sets the resolution: --resolution keeps its unused default
    arr = np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32)
    raw = tmp_path / "input.bin"
    save_raw_tensor(raw, arr)
    code, doc = run_json(capsys, *command, "--config", tiny_config, "--input", str(raw))
    assert code == 0
    validator(doc)
    assert doc["resolution"] == 64
    if command == ("forward",):
        assert doc["shape"] == [1, 10]


def test_describe_lists_every_block(capsys, validator):
    code, doc = run_json(capsys, "describe", "--preset", "emo-1m")
    assert code == 0
    validator(doc)
    assert len(doc["blocks"]) == 15
    stage3 = [b for b in doc["blocks"] if b["stage"] == 3]
    assert all(b["enable_attn"] for b in stage3)
    assert doc["blocks"][0]["input_resolution"] == 112


@pytest.mark.parametrize("resolution, want", [
    (224, [112, 56, 56, 28, 28, *[14] * 8, 7, 7]),
    (320, [160, 80, 80, 40, 40, *[20] * 8, 10, 10]),
])
def test_describe_pins_every_block_input_resolution(capsys, resolution, want):
    code, doc = run_json(capsys, "describe", "--preset", "emo-1m", "--resolution", str(resolution))
    assert code == 0
    assert [b["input_resolution"] for b in doc["blocks"]] == want


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


@pytest.mark.parametrize("argv, code", [
    (("mpl", "--resolution", "0"), 2),
    (("mpl", "--resolution", "1"), 2),  # one corner: no corner-to-corner path
    (("mpl", "--kind", "conv", "--kernel", "1", "--resolution", "1"), 2),
    (("mpl", "--kind", "conv", "--kernel", "1"), 0),
    (("bench", "--preset", "emo-1m", "--runs", "0"), 2),
    (("equiv", "--hw", "0"), 2),
], ids=["mpl-resolution-0", "mpl-resolution-1", "mpl-conv-kernel-1-resolution-1", "mpl-conv-kernel-1",
        "bench-runs-0", "equiv-hw-0"])
def test_numeric_edge_cases_exit_cleanly(capsys, validator, argv, code):
    got, doc = run_json(capsys, *argv)
    assert got == code, doc
    validator(doc)
    if code == 2:
        assert doc["error"]["code"] == "config"
        assert argv[0] != "mpl" or "resolution" in doc["error"]["message"]
    else:  # a 1x1 conv never reaches the far corner, and no closed form bounds it
        assert doc["empirical"] is None and doc["closed_form"] is None


def test_gradcheck_command(capsys, validator):
    code, doc = run_json(capsys, "gradcheck", "--target", "mlp", "--seed", "0")
    assert code == 0
    validator(doc)
    assert doc["passed"] is True
    worst = doc["reports"]["mlp"]["worst"]  # a leaf of the block is first read by the stage it is named after
    assert worst["stage"] == ("input" if worst["leaf"] == "__input__" else worst["leaf"].split(".")[0])


def test_gradcheck_nan_error_fails_and_exits_internal(capsys, validator, monkeypatch):
    # max(0.0, nan) is 0.0, so the fold must take a NaN error as the worst; and
    # a NaN that reaches the JSON layer is an internal error document, not a traceback
    nan_report = analysis.GradCheckReport("irmb", math.nan, 200, "expand.w", 0, "expand")
    monkeypatch.setattr(cli.analysis, "grad_check", lambda *args, **kwargs: nan_report)
    doc = cli.cmd_gradcheck(argparse.Namespace(target="mlp", seed=0))
    assert math.isnan(doc["max_rel_err"]) and doc["passed"] is False
    code, doc = run_json(capsys, "gradcheck", "--target", "mlp")
    assert code == 3
    validator(doc)
    assert doc["error"]["code"] == "internal" and "non-finite" in doc["error"]["message"]


def test_out_flag_writes_the_internal_error_document_too(capsys, validator, monkeypatch, tmp_path):
    # an invariant breach reaches --out like a config error does, not only stdout
    monkeypatch.setattr(cli.analysis, "check_primitives", lambda seed=0: {"conv2d": math.nan})
    out = tmp_path / "r.json"
    code, doc = run_json(capsys, "gradcheck", "--target", "primitives", "--out", str(out))
    assert code == 3
    validator(doc)
    assert doc["error"]["code"] == "internal" and json.loads(out.read_text()) == doc


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
    peak = doc["peak_rss_mb"]
    assert (peak is None) == (cli.resource is None)
    assert peak is None or peak > 0


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


# the options of each subcommand: --out, and the flags its handler reads
_MODEL = {"--preset", "--config", "--resolution"}
_OPTIONS = {
    "describe": {*_MODEL, "--out"},
    "count": {*_MODEL, "--out"},
    "forward": {*_MODEL, "--seed", "--precision", "--input", "--out"},
    "gradcheck": {"--seed", "--target", "--out"},
    "equiv": {"--seed", "--precision", "--channels", "--heads", "--groups", "--lambda", "--window", "--hw",
              "--out"},
    "influence": {"--seed", "--blocks", "--channels", "--kernel", "--window", "--attn", "--conv",
                  "--resolution", "--source", "--mode", "--out"},
    "mpl": {"--kind", "--kernel", "--window", "--resolution", "--out"},
    "similarity": {*_MODEL, "--seed", "--precision", "--stage", "--input", "--out"},
    "bench": {*_MODEL, "--seed", "--precision", "--runs", "--input", "--out"},
}


def _parser_options():
    """subcommand -> the option strings `cli.build_parser()` gives it, bar -h/--help."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_each_subcommand_takes_only_the_flags_its_handler_reads():
    assert _parser_options() == _OPTIONS


def test_readme_flag_table_lists_each_subcommands_parser_flags():
    # the README's "subcommand | flags" table: each row names its subcommands
    # and flags in backticks, and every subcommand has exactly one row
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | flags |") + 2  # past the header and its rule
    table = {}
    for row in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:]):
        names, flags = row.strip("|").split("|")
        for name in re.findall(r"`([a-z]+)`", names):
            assert name not in table, name
            table[name] = set(re.findall(r"--[a-z-]+", flags))
    assert table == _parser_options()


@pytest.mark.parametrize("argv", [("count", "--precision", "f64"), ("mpl", "--seed", "1")])
def test_a_flag_the_command_does_not_read_is_config_error(capsys, validator, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    validator(doc)
    assert doc["error"]["code"] == "config" and argv[1] in doc["error"]["message"]


def test_out_path_that_cannot_be_written_is_config_error(capsys, validator, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, doc = run_json(capsys, "count", "--preset", "emo-1m", "--out", str(out))
    assert code == 2
    validator(doc)
    assert doc["error"]["code"] == "config" and str(out) in doc["error"]["message"]
    assert not out.parent.exists()


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


def test_config_path_that_cannot_be_read_is_config_error(capsys, validator, tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):  # a directory opens with IsADirectoryError
        code, doc = run_json(capsys, "count", "--config", str(path))
        assert code == 2, doc
        validator(doc)
        assert doc["error"]["code"] == "config" and str(path) in doc["error"]["message"]


@pytest.mark.parametrize("text", ['{"depths": [1,', "[" * 100000 + "]" * 100000], ids=["cut", "nested-too-deep"])
def test_config_that_does_not_parse_is_config_error(capsys, validator, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, doc = run_json(capsys, "count", "--config", str(path))
    assert code == 2, doc
    validator(doc)
    assert doc["error"]["code"] == "config" and "does not parse as JSON" in doc["error"]["message"]


def test_bad_resolution_is_config_error(capsys):
    code, doc = run_json(capsys, "count", "--preset", "emo-1m", "--resolution", "100")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("equiv", "--channels", "8", "--heads", "3"), "heads=3 must"),
    (("influence", "--kernel", "2"), "kernel must be odd"),
    (("mpl", "--kind", "conv", "--kernel", "4"), "kernel must be odd"),
    (("equiv", "--lambda", "1e308"), "finite"),
    (("equiv", "--lambda", "inf"), "finite"),
    (("equiv", "--lambda", "nan"), "finite"),
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


# ---------------------------------------------------------------------------
# config readers against their schema files: every document below breaks the
# schema, and the reader must reject it cleanly, so the two cannot drift apart


def _schema(name):
    import jsonschema

    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


BAD_VARIANT_CONFIGS = {
    "depths-float": {"depths": [1.7, 1, 1, 1]},
    "depths-bool": {"depths": [True, 1, 1, 1]},
    "depths-string": {"depths": ["8", 1, 1, 1]},
    "depths-null": {"depths": [None, 1, 1, 1]},
    "depths-zero": {"depths": [0, 1, 1, 1]},
    "depths-three": {"depths": [1, 1, 1]},
    "depths-not-a-list": {"depths": 1},
    "dims-float": {"dims": [8.5, 8, 16, 16]},
    "exp-ratio-string": {"exp_ratios": ["2", 2, 2, 2]},
    "exp-ratio-bool": {"exp_ratios": [True, 2, 2, 2]},
    "exp-ratio-zero": {"exp_ratios": [0, 2, 2, 2]},
    "attn-duplicate": {"attn_stages": [3, 3]},
    "attn-float": {"attn_stages": [2.5]},
    "attn-bool": {"attn_stages": [True]},
    "attn-five": {"attn_stages": [5]},
    "windows-float": {"windows": [2.5, 7, 7, 7]},
    "windows-zero": {"windows": [0, 7, 7, 7]},
    "num-classes-zero": {"num_classes": 0},
    "num-classes-negative": {"num_classes": -1},
    "num-classes-string": {"num_classes": "10"},
    "head-dim-zero": {"head_dim": 0},
    "head-dim-negative": {"head_dim": -5},
    "head-dim-bool": {"head_dim": True},
    "head-dim-float": {"head_dim": 32.5},
    "name-int": {"name": 3},
    "unknown-field": {"dropout": 0.1},
}


@pytest.mark.parametrize("case", sorted(BAD_VARIANT_CONFIGS))
def test_variant_config_breaking_the_schema_exits_2(capsys, validator, tmp_path, case):
    doc = {**TINY_CONFIG, **BAD_VARIANT_CONFIGS[case]}
    assert not _schema("variant_config.schema.json").is_valid(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "count", "--config", str(path), "--resolution", "64")
    assert code == 2, out
    validator(out)
    assert out["error"]["code"] == "config"


def test_valid_variant_configs_pass_schema_and_reader():
    schema = _schema("variant_config.schema.json")
    docs = [TINY_CONFIG, {"depths": [1, 1, 1, 1], "dims": [8, 8, 8, 8], "exp_ratios": [2, 2, 2, 2]}]
    for cfg in PRESETS.values():
        docs.append({"name": cfg.name, "depths": list(cfg.depths), "dims": list(cfg.dims),
                     "exp_ratios": list(cfg.exp_ratios), "attn_stages": sorted(cfg.attn_stages),
                     "windows": list(cfg.windows), "num_classes": cfg.num_classes, "head_dim": cfg.head_dim})
        assert cli.parse_variant_config(docs[-1]) == cfg
    for doc in docs:
        schema.validate(doc)
        cli.parse_variant_config(doc)


MMB_DOC = {"channels": 8, "expansion_ratio": 2.0, "operator": "ewmhsa_dwconv", "window": 2, "heads": 2}
BAD_MMB_CONFIGS = {
    "channels-bool": {"channels": True},
    "channels-string": {"channels": "8"},
    "channels-zero": {"channels": 0},
    "expand-groups-bool": {"expand_groups": True},
    "kernel-string": {"kernel": "3"},
    "window-float": {"window": 2.5},
    "heads-bool": {"heads": True},
    "heads-zero": {"heads": 0},
    "ratio-string": {"expansion_ratio": "2"},
    "ratio-bool": {"expansion_ratio": True},
    "ratio-zero": {"expansion_ratio": 0},
    "operator-unknown": {"operator": "conv"},
    "norm-int": {"pre_norm": 3},
    "operator-int": {"operator": 3},
    "pre-norm-null": {"pre_norm": None},
    "unknown-field": {"dropout": 0.1},
}
# cases the reader itself must reject, before MMBConfig checks any value
MMB_READER_MESSAGES = {"norm-int": "is not a string", "operator-int": "is not a string",
                       "pre-norm-null": "is not a string"}


@pytest.mark.parametrize("case", sorted(BAD_MMB_CONFIGS))
def test_mmb_config_breaking_the_schema_raises_value_error(case):
    doc = {**MMB_DOC, **BAD_MMB_CONFIGS[case]}
    assert not _schema("mmb_config.schema.json").is_valid(doc)
    with pytest.raises(ValueError, match=MMB_READER_MESSAGES.get(case)):
        mmb_config_from_dict(doc)


def test_valid_mmb_configs_pass_schema_and_reader():
    schema = _schema("mmb_config.schema.json")
    cfgs = [mmb_config_from_dict(MMB_DOC), mmb_config_from_dict({**MMB_DOC, "window": None}),
            mmb_instantiate("irb", 8), mmb_instantiate("ffn", 8), mmb_instantiate("mhsa", 8, heads=2)]
    for cfg in cfgs:
        doc = mmb_config_to_dict(cfg)
        schema.validate(doc)
        assert mmb_config_from_dict(doc) == cfg


def test_readers_take_an_integer_literal_where_the_schema_says_integer():
    # JSON Schema counts 8.0 as an integer; the readers take only 8, so no
    # float reaches a width, a head count or a window
    with pytest.raises(ValueError, match="not an integer"):
        cli.parse_variant_config({**TINY_CONFIG, "head_dim": 32.0})
    for field, value in (("channels", 8.0), ("heads", 2.0), ("kernel", 3.0)):
        with pytest.raises(ValueError, match="not an integer"):
            mmb_config_from_dict({**MMB_DOC, field: value})
    # each schema says so in its $comment, since its "integer" type admits 8.0
    for name in ("variant_config.schema.json", "mmb_config.schema.json"):
        schema = _schema(name)
        schema.check_schema(schema.schema)
        assert "integer literal" in schema.schema["$comment"]


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e308",
                                   pytest.param("1" + "0" * 400, id="integer-10**400")])
def test_readers_reject_a_non_finite_ratio(capsys, validator, tmp_path, value):
    # Python's json module reads Infinity and NaN, which JSON itself does not
    # allow; 1e308 is a finite ratio whose width overflows, and an integer
    # literal past the float range is no finite number either
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(TINY_CONFIG).replace('"exp_ratios": [2.0', f'"exp_ratios": [{value}'))
    code, out = run_json(capsys, "count", "--config", str(path), "--resolution", "64")
    assert code == 2, out
    validator(out)
    assert "finite" in out["error"]["message"]
    with pytest.raises(ValueError, match="finite"):
        mmb_config_from_dict({**MMB_DOC, "expansion_ratio": json.loads(value)})


@pytest.mark.parametrize("schema_name, cls, read, full", [
    ("variant_config.schema.json", EMOVariantConfig, cli.parse_variant_config,
     {**TINY_CONFIG, "attn_stages": [3, 4], "windows": [7, 7, 7, 7], "head_dim": 32}),
    ("mmb_config.schema.json", MMBConfig, mmb_config_from_dict, mmb_config_to_dict(MMBConfig(**MMB_DOC))),
], ids=["variant", "mmb"])
def test_schema_files_state_the_dataclass_fields(schema_name, cls, read, full):
    # the reader takes its fields from the dataclass, and the schema is the
    # published contract: the two must name the same fields and required ones
    schema = _schema(schema_name).schema
    names = sorted(f.name for f in dataclasses.fields(cls))
    assert sorted(schema["properties"]) == sorted(full) == names
    read(full)
    required = []
    for name in names:
        try:
            read({k: v for k, v in full.items() if k != name})
        except ValueError as exc:
            if "missing" in str(exc):
                required.append(name)
    assert sorted(schema["required"]) == required


def test_reports_schema_totals_state_the_count_record():
    # a report's totals are params, flops and every field of the count record
    totals = _schema("reports.schema.json").schema["$defs"]["totals"]
    names = sorted(["params", "flops", *(f.name for f in dataclasses.fields(CostMeter))])
    assert sorted(totals["properties"]) == sorted(totals["required"]) == names
    assert sorted(analysis.count_costs(PRESETS["emo-1m"], 224).as_dict()["totals"]) == names


def test_minimal_variant_config_takes_every_other_field_from_the_dataclass():
    doc = {"depths": [1, 1, 1, 1], "dims": [8, 8, 8, 8], "exp_ratios": [2, 2, 2, 2]}
    cfg = cli.parse_variant_config(doc)
    assert cfg == EMOVariantConfig("custom", (1, 1, 1, 1), (8, 8, 8, 8), (2.0, 2.0, 2.0, 2.0))
    assert all(type(r) is float for r in cfg.exp_ratios)
    for f in dataclasses.fields(EMOVariantConfig):
        if f.name not in doc and f.name != "name":
            assert getattr(cfg, f.name) == f.default, f.name
