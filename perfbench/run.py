"""Benchmark of the emo library: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload infer-1m-b1-f32 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

`--workload all` runs every workload, one child process each, in turn.

With `--trace 0` the run reports the end-to-end metrics, measured with no
wrapper installed. With `--trace 1` it alternates untraced requests with
requests traced by `tracing.Tracer` and reports the per-layer metrics, the
tracing overhead and the time no traced function covers; the spans go to
`perfbench/out/trace-<workload>-seed<seed>.json.gz`. Every request's output
is checked in both modes. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

The program under test is the `emo` package in `src/` of the checkout that
holds this file; the run exits with status 2 and prints no result when it
is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import ELEMENTWISE, Tracer
from workloads import METER_FIELDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COLD_SETUPS = 3     # set-ups per untraced run, each the first in a fresh process; setup_s is their median
MIN_REQUESTS = 2    # timed requests run even when --seconds has elapsed

# end-to-end metrics of the result line; latency_ms_tail and failed_frac are
# printed beside them but left out: the tail doubles in runs that overlap a
# burst of neighbour load, and failed_frac is 0 (see README.md)
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

CONV_VARIANTS = ("pw", "dw", "dense")
VJPS = ("matmul", "softmax_lastdim", "batchnorm_inference", "layernorm_channels", "silu", "gelu")
METER = (*METER_FIELDS, "other_adds")
# spans aggregated per set-up rather than per timed request
SETUP_SPANS = ("model.build_emo", "model.load_model", "tensor.Rng.normal",
               "serialize.save_params", "serialize.load_params")


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for v in CONV_VARIANTS:
        spec += [(f"ops.conv2d.{v}.ms", "ms"), (f"ops.conv2d.{v}.calls", "count"),
                 (f"ops.conv2d.{v}.macs", "MAC"), (f"ops.conv2d.{v}.gmacs_per_s", "GMAC/s"),
                 (f"ops.conv2d.{v}.macs_per_byte", "MAC/B_computed")]
    spec += [("ops.matmul.ms", "ms"), ("ops.matmul.calls", "count"),
             ("ops.matmul.macs", "MAC"), ("ops.matmul.gmacs_per_s", "GMAC/s")]
    for op in ELEMENTWISE:
        spec += [(f"ops.{op}.ms", "ms"), (f"ops.{op}.calls", "count"), (f"ops.{op}.melems_per_s", "Melem/s")]
    for v in CONV_VARIANTS:
        spec += [(f"ops.conv2d_vjp.{v}.ms", "ms"), (f"ops.conv2d_vjp.{v}.calls", "count")]
    for op in VJPS:
        spec += [(f"ops.{op}_vjp.ms", "ms"), (f"ops.{op}_vjp.calls", "count")]
    spec += [("autograd.backward.self_ms", "ms"), ("autograd.backward.nodes", "count")]
    for fn in ("window_partition", "window_merge", "attention_weights", "mix_values"):
        spec += [(f"attention.{fn}.ms", "ms"), (f"attention.{fn}.calls", "count")]
    for fn in ("irmb.irmb_forward", "irmb.ew_mhsa", "irmb.equivalence_check", "mmb.mmb_forward"):
        spec += [(f"{fn}.self_ms", "ms"), (f"{fn}.calls", "count")]
    spec += [("model.emo_forward.self_ms", "ms")]
    spec += [(f"analysis.{fn}.self_ms", "ms") for fn in ("grad_check", "check_primitives", "influence_mask")]
    spec += [("analysis.count_costs.ms", "ms"), ("analysis.checks_failed", "count")]
    spec += [("model.build_emo.ms", "ms"), ("model.load_model.ms", "ms"),
             ("tensor.Rng.normal.ms", "ms"), ("tensor.Rng.normal.calls", "count"),
             ("serialize.save_params.ms", "ms"),
             ("serialize.load_params.ms", "ms"), ("serialize.load_params.mb_per_s", "MB/s")]
    spec += [("tensor.Tensor.ms", "ms")]
    spec += [(f"ops.meter.{f}", "count") for f in METER] + [("ops.meter.other_adds_static", "count")]
    spec += [("trace.overhead_frac", "frac"), ("trace.unattributed_ms", "ms")]
    return spec


# ---------------------------------------------------------------------------
# program and host


def import_program():
    """Import `emo` from this checkout's src/, never from anywhere else."""
    if not (SRC / "emo" / "__init__.py").is_file():
        raise ImportError(f"no emo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import emo

    if Path(emo.__file__).resolve().parent != (SRC / "emo").resolve():
        raise ImportError(f"emo imported from {emo.__file__}, not from {SRC}")
    return emo


def _openblas():
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
        try:
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            get_config = getattr(lib, f"{prefix}_get_config{suffix}")
        except AttributeError:
            continue
        get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
        return get_threads(), get_config().decode()
    return None


def fingerprint() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = _openblas()
    blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_info.get('name')} {blas_info.get('version')}",
        "openblas_config": blas[1] if blas else "unavailable",
        "blas_threads": blas[0] if blas else "unavailable",
    }


# ---------------------------------------------------------------------------
# statistics


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest whole percentile with at least ten samples above it."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], f"max (only {n} samples)"
    pct = (100 * (n - 10)) // n
    return ordered[(pct * (n - 1)) // 100], f"p{pct}"


def per(total: float, count: int) -> float:
    return total / count if count else 0.0


NO_SPANS = {"self_s": 0.0, "calls": 0, "work": 0.0, "bytes": 0.0}

# metric suffix -> value from a span's summed totals and the number of
# requests (or set-ups) they cover
SPAN_FIELDS = {
    "ms": lambda t, n: per(t["self_s"] * 1e3, n),
    "self_ms": lambda t, n: per(t["self_s"] * 1e3, n),
    "calls": lambda t, n: per(t["calls"], n),
    "macs": lambda t, n: per(t["work"], n),
    "nodes": lambda t, n: per(t["work"], n),
    "gmacs_per_s": lambda t, n: per(t["work"], t["self_s"]) / 1e9,
    "melems_per_s": lambda t, n: per(t["work"], t["self_s"]) / 1e6,
    "mb_per_s": lambda t, n: per(t["bytes"], t["self_s"]) / 1e6,
    "macs_per_byte": lambda t, n: per(t["work"], t["bytes"]),
}


# ---------------------------------------------------------------------------
# runs


class Run:
    """Set-ups, then the timed closed loop, of one workload in this process."""

    def __init__(self, emo, workload, seconds: float, trace: bool, cold_setup_cmd: list[str]):
        self.w = workload
        self.cold_setup_cmd = cold_setup_cmd
        self.seconds = seconds
        self.tracer = Tracer(emo) if trace else None
        self.setup_times: list[float] = []
        self.latencies: dict[bool, list[float]] = {False: [], True: []}  # traced? -> seconds
        self.traced_ids: list[int] = []
        self.failed: set[int] = set()
        self.attempted = 0
        self.wall = 0.0

    def _call(self, fn, kind: str, request: int, traced: bool):
        """Run fn; return its result and wall seconds (the root span's, if traced)."""
        if not traced:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0
        with self.tracer.installed(), self.tracer.root(kind, request) as rec:
            out = fn()
        return out, rec[2] - rec[1]

    def setup(self) -> None:
        """This process's own set-up, the first and so a cold one (traced in a traced run)."""
        _, dt = self._call(self.w.setup, "bench.setup", -1, self.tracer is not None)
        self.setup_times.append(dt)

    def cold_setups(self) -> None:
        """COLD_SETUPS - 1 more cold set-ups, each in a child process of its own.

        They run after the timed phase, so that the set-ups behind setup_s
        see the host at two moments rather than one.
        """
        for _ in range(COLD_SETUPS - 1):
            proc = subprocess.run(self.cold_setup_cmd, stdout=subprocess.PIPE, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"cold set-up exited with {proc.returncode}")
            self.setup_times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def timed(self) -> None:
        """Closed loop; in a traced run every second request is traced."""
        t_start = time.perf_counter()
        i = 0
        while i < MIN_REQUESTS or time.perf_counter() - t_start < self.seconds:
            traced = self.tracer is not None and i % 2 == 1
            t0 = time.perf_counter()
            try:
                out, dt = self._call(lambda: self.w.request(i), "bench.request", i, traced)
            except Exception:
                # a request that raises fails its check; its time up to the raise still counts
                traceback.print_exc()
                out, dt = None, time.perf_counter() - t0
            self.latencies[traced].append(dt)
            if traced:
                self.traced_ids.append(i)
            if not self.w.check(i, out):
                self.failed.add(i)
            i += 1
        self.wall = time.perf_counter() - t_start
        self.attempted = i

    def end_to_end(self) -> dict[str, float]:
        lat = self.latencies[False]
        ms = [t * 1e3 for t in lat]
        tail_ms, self.tail_label = tail(ms)
        return {
            "setup_s": statistics.median(self.setup_times),
            "latency_ms_p50": statistics.median(ms),
            "latency_ms_tail": tail_ms,
            "items_per_s": self.attempted * self.w.items_per_request / self.wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, meter: dict, static: dict) -> dict[str, float]:
        """Every per-layer metric: per traced request, or per set-up for SETUP_SPANS."""
        per_request = self.tracer.totals(self.traced_ids)
        per_setup = self.tracer.totals([-1])
        untraced_p50 = statistics.median(self.latencies[False])
        special = {
            "analysis.checks_failed": per(sum(getattr(self.w, "failed_checks", {}).values()), self.attempted),
            "ops.meter.other_adds_static": static["other_adds"],
            "trace.overhead_frac": statistics.median(self.latencies[True]) / untraced_p50 - 1.0,
            "trace.unattributed_ms": SPAN_FIELDS["ms"](per_request.get("bench.request", NO_SPANS),
                                                       len(self.traced_ids)),
            **{f"ops.meter.{f}": meter[f] for f in METER},
        }
        out = {}
        for name, _unit in per_layer_spec():
            if name in special:
                out[name] = special[name]
                continue
            span, field = name.rsplit(".", 1)
            if span in SETUP_SPANS:
                out[name] = SPAN_FIELDS[field](per_setup.get(span, NO_SPANS), 1)
            else:
                out[name] = SPAN_FIELDS[field](per_request.get(span, NO_SPANS), len(self.traced_ids))
        return out


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:40s} {value:>16.6g} {unit:14s} {note}".rstrip())


def run_all(args) -> int:
    """Run every workload in its own process; print each report, then a summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="run on the 64 px tiny variant (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up and print it as JSON (the cold set-ups of an untraced run)")
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    try:
        emo = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](emo, args.seed, args.tiny, OUT)
    if args.setup_only:
        t0 = time.perf_counter()
        workload.setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    cold_setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    run = Run(emo, workload, args.seconds, bool(args.trace), cold_setup_cmd)
    run.setup()
    run.timed()
    if not args.trace:
        run.cold_setups()
    e2e = run.end_to_end()  # before the reference checks, so peak_rss_mb is the workload's own
    run.failed |= workload.reference_failures()
    meter, static = workload.metered()

    fp = fingerprint()
    fp.update(workload=args.workload, seed=args.seed, trace=args.trace, tiny=args.tiny,
              requests=run.attempted, untraced_requests=len(run.latencies[False]),
              traced_requests=len(run.latencies[True]), latency_ms_tail_is=run.tail_label,
              setup_s_each=[round(t, 6) for t in run.setup_times])
    print("fingerprint " + json.dumps(fp))
    failed = len(run.failed)
    correct = failed == 0
    if args.trace:
        per_layer = run.per_layer(meter, static)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        spans = run.tracer.write(path)
        restored = run.tracer.originals_restored()
        correct = correct and restored
        print(f"trace: {spans} spans in {path.relative_to(ROOT)}; originals restored: {restored}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in per_layer_spec()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for name, rec in metrics.items():
        note = f"(median of {len(run.setup_times)} cold set-ups)" if name == "setup_s" else ""
        print_metric(name, rec["value"], rec["unit"], note)
    untraced = len(run.latencies[False])
    print_metric("latency_ms_tail", e2e["latency_ms_tail"], "ms",
                 f"({run.tail_label} of {untraced} untraced requests)")
    print_metric("failed_frac", failed / run.attempted, "frac", f"({failed} of {run.attempted} requests)")
    if getattr(workload, "failed_checks", None):
        print(f"failed desk checks: {workload.failed_checks}")
    print(f"reference error (worst): {getattr(workload, 'drift', 0.0):.3g}")
    print(f"ops.meter.other_adds {meter['other_adds']} vs static {static['other_adds']} "
          "(residual adds are not metered; reported, not checked)")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
