"""perfbench's span tracer finds every function it traces in emo."""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_its_emo_module():
    # the tracer reads each name from the module's (or the class's) own namespace,
    # and a name it cannot find stops a --trace 1 run before its first request
    traced = runpy.run_path(str(TRACING))["TRACED"]  # compiled from source: writes no bytecode
    missing = []
    for modname, attrs in traced.items():
        for attr in attrs:  # "name" or "Class.method"
            obj = importlib.import_module(f"emo.{modname}")
            for part in attr.split("."):
                obj = getattr(obj, "__dict__", {}).get(part)
            if not callable(obj):
                missing.append(f"emo.{modname}.{attr}")
    assert not missing, missing
