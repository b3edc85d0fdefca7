"""Smoke test of the benchmark itself, on the 64 px tiny variant.

    python3 perfbench/smoke.py

For every workload, untraced and traced, it checks that the run is correct
with no failed request, that the last line names exactly the metrics of
BENCHMARK.json with their units, and that every metric, latency_ms_tail and
failed_frac included, is also printed by name with its unit. An untraced
run must time COLD_SETUPS cold set-ups. After the traced runs every
attribute the tracer replaced must be the original object again, and in each traced request the
self times must add up to the request's duration. Last, a copy of the
benchmark without the program beside it must exit non-zero and print no
result. Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def snapshot(emo) -> dict:
    """Identity of every attribute of every emo module and traced class."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name == "emo" or name.startswith("emo."):
            snap.update({(name, k): v for k, v in vars(module).items()})
    for cls in (emo.Tensor, emo.Rng):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def run_once(workload: str, trace: int) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny"])
    assert code == 0, (workload, trace, code)
    lines = buf.getvalue().strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_report(workload: str, trace: int, text: list[str], doc: dict) -> None:
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1, (workload, doc)
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in want] == list(doc["metrics"]), (workload, trace)
    for m in want:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
        assert any(ln.split()[:1] == [m["name"]] and m["unit"] in ln.split() for ln in text), m["name"]
    tail = next(ln.split() for ln in text if ln.startswith("latency_ms_tail "))
    assert float(tail[1]) > 0 and tail[2] == "ms", tail
    frac = next(ln.split() for ln in text if ln.startswith("failed_frac "))
    assert float(frac[1]) == 0.0 and frac[2] == "frac", frac
    fp = json.loads(next(ln for ln in text if ln.startswith("fingerprint "))[len("fingerprint "):])
    assert len(fp["setup_s_each"]) == (1 if trace else run.COLD_SETUPS), fp["setup_s_each"]


def check_spans(workload: str) -> None:
    """Self times plus unattributed time account for each traced request."""
    with gzip.open(HERE / "out" / f"trace-{workload}-seed7.json.gz", "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    names, col = doc["names"], {k: np.asarray(v) for k, v in doc["columns"].items()}
    dur = col["end"] - col["start"]
    has_parent = col["parent"] >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, col["parent"][has_parent], dur[has_parent])
    self_time = dur - covered
    parent = col["parent"][has_parent]
    assert np.all(col["start"][has_parent] >= col["start"][parent] - 1e-9)
    assert np.all(col["end"][has_parent] <= col["end"][parent] + 1e-9)
    roots = np.flatnonzero(np.asarray(names)[col["name"]] == "bench.request")
    assert roots.size >= 1, workload
    for r in roots:
        mine = col["request"] == col["request"][r]
        assert abs(self_time[mine].sum() - dur[r]) <= 1e-6 * max(dur[r], 1e-3), (workload, r)


def check_bare_copy() -> None:
    """Without src/ beside it the benchmark exits non-zero and prints no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-desk", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    emo = run.import_program()
    before = snapshot(emo)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            text, doc = run_once(workload, trace)
            check_report(workload, trace, text, doc)
            print(f"ok  {workload} trace={trace} attempted={doc['attempted']}", flush=True)
        check_spans(workload)
        after = snapshot(emo)
        changed = sorted(k for k in before if after.get(k) is not before[k])
        assert not changed, changed
        print(f"ok  {workload}: every traced attribute restored, self times add up", flush=True)
    check_bare_copy()
    print("ok  no result without the program", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
