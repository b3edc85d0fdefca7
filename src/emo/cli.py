"""Command-line interface: the library over JSON configs (`tensor.config_from_json`).

    emo describe   --preset emo-5m --resolution 224
    emo count      --preset emo-1m --resolution 224
    emo forward    --preset emo-1m --input noise --seed 3
    emo gradcheck  --target irmb --seed 0
    emo equiv      --channels 8 --heads 4 --groups 4 --lam 2 --seed 7
    emo influence  --blocks 2 --kernel 3 --resolution 9 --source 4,4 --attn off
    emo mpl        --kind cascade --kernel 3 --window 2 --resolution 8
    emo similarity --preset emo-1m --stage 3 --seed 0
    emo bench      --preset emo-1m --runs 30

Every command prints exactly one JSON document on stdout. Exit codes:
0 success, 2 configuration/usage error, 3 internal invariant breach.
Output is byte-stable for a fixed (command, config, seed, precision) -
except `bench`, whose timings are local wall-clock measurements and
reproduce no published figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import analysis
from .irmb import IRMBConfig, equivalence_check
from .model import IN_CHANNELS, EMOVariantConfig, PRESETS, build_emo, emo_forward, model_stages, preset
from .serialize import ContainerError, load_raw_tensor
from .tensor import Rng, Tensor, config_from_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# run-config parsing (strict)

def parse_variant_config(doc: dict) -> EMOVariantConfig:
    """The variant a JSON config states; see `tensor.config_from_json` for what it rejects."""
    return config_from_json(EMOVariantConfig, doc, "config", name="custom")


def resolve_model_config(args) -> EMOVariantConfig:
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    if args.preset:
        return preset(args.preset)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                return parse_variant_config(json.load(fh))
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read config file {args.config}: {exc.strerror or exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to parse
            raise ConfigError(f"config does not parse as JSON: {exc}") from exc
    raise ConfigError("one of --preset or --config is required")


# ---------------------------------------------------------------------------
# JSON emission


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            raise AssertionError("non-finite value reached the JSON layer")
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def emit(doc: dict, out=None) -> None:
    text = json.dumps(_sanitize(doc), indent=2, sort_keys=True) + "\n"
    if out is not None:
        out.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _make_input(args) -> np.ndarray:
    res = args.resolution
    shape = (1, IN_CHANNELS, res, res)
    kind = args.input
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "noise":
        return Rng(args.seed).uniform("cli.input", shape, -1.0, 1.0, args.precision)
    if kind.startswith("const:"):
        try:
            return np.full(shape, float(kind.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad constant input spec {kind!r}") from exc
    try:
        arr = load_raw_tensor(kind)
    except (OSError, ContainerError) as exc:
        raise ConfigError(f"cannot read input tensor {kind!r}: {exc}") from exc
    if arr.ndim != 4 or arr.shape[1] != IN_CHANNELS:
        raise ConfigError(f"input tensor must be (N, {IN_CHANNELS}, H, W), got {arr.shape}")
    return arr


def cmd_describe(args) -> dict:
    cfg = resolve_model_config(args)
    rep = analysis.count_costs(cfg, args.resolution)
    by_block = rep.by_block()
    input_resolution, r = {}, args.resolution
    for st in model_stages(cfg):  # a block's input is its first stage's
        input_resolution.setdefault(st.name.rsplit(".", 1)[0], r)
        r = st.out_hw(r, r)[0]
    blocks = []
    for name, stage, bcfg in cfg.blocks:
        blocks.append({
            "name": name,
            "stage": stage,
            "in_channels": bcfg.in_channels,
            "out_channels": bcfg.out_channels,
            "mid_channels": bcfg.mid,
            "expansion_ratio": bcfg.expansion_ratio,
            "kernel": bcfg.kernel,
            "window": bcfg.window,
            "heads": bcfg.num_heads,
            "stride": bcfg.stride,
            "enable_attn": bcfg.enable_attn,
            "enable_conv": bcfg.enable_conv,
            "attn_at": bcfg.attn_at,
            "expand_groups": bcfg.expand_groups,
            "input_resolution": input_resolution[name],
            "costs": by_block[name],
        })
    return {
        "command": "describe",
        "model": {
            "name": cfg.name,
            "depths": list(cfg.depths),
            "dims": list(cfg.dims),
            "exp_ratios": list(cfg.exp_ratios),
            "attn_stages": sorted(cfg.attn_stages),
            "windows": list(cfg.windows),
            "num_classes": cfg.num_classes,
        },
        "resolution": args.resolution,
        "stem": by_block["stem"],
        "blocks": blocks,
        "head": by_block["head"],
        "totals": rep.as_dict()["totals"],
    }


def cmd_count(args) -> dict:
    cfg = resolve_model_config(args)
    rep = analysis.count_costs(cfg, args.resolution)
    doc = rep.as_dict()
    doc["command"] = "count"
    return doc


def cmd_forward(args) -> dict:
    cfg = resolve_model_config(args)
    model = build_emo(cfg, seed=args.seed, precision=args.precision)
    x = Tensor(_make_input(args), precision=args.precision)
    logits = emo_forward(model, x)
    return {
        "command": "forward",
        "model": cfg.name,
        "resolution": x.shape[2],
        "seed": args.seed,
        "precision": args.precision,
        "input": args.input,
        "shape": list(logits.shape),
        "logits": logits.tolist(),
        "stats": {
            "min": float(logits.min()),
            "max": float(logits.max()),
            "mean": float(logits.mean()),
        },
    }


def cmd_gradcheck(args) -> dict:
    reports = {}
    if args.target in ("primitives", "all"):
        reports["primitives"] = analysis.check_primitives(seed=args.seed)
    blocks = {"irmb": IRMBConfig(8, 8, 2.0, window=4, heads=2, expand_groups=2),
              "mlp": IRMBConfig(8, 8, 2.0, enable_attn=False, enable_conv=False)}
    for key, cfg in blocks.items():
        if args.target in (key, "all"):
            r = analysis.grad_check(cfg, seed=args.seed, input_hw=(8, 8))
            reports[key] = {"max_rel_err": r.max_rel_err, "coords": r.coords_checked,
                            "worst": {"leaf": r.worst_leaf, "index": r.worst_index, "stage": r.worst_stage}}
    if not reports:
        raise ConfigError(f"unknown gradcheck target {args.target!r}")
    errs = [e for rep in reports.values() for e in ([rep["max_rel_err"]] if "max_rel_err" in rep else rep.values())]
    worst = max(errs, key=lambda e: (math.isnan(e), e))  # a NaN error is the worst
    return {
        "command": "gradcheck",
        "target": args.target,
        "seed": args.seed,
        "reports": reports,
        "max_rel_err": worst,
        "passed": worst < 1e-4,
    }


def cmd_equiv(args) -> dict:
    cfg = IRMBConfig(
        args.channels, args.channels, args.lam,
        window=args.window, heads=args.heads, expand_groups=args.groups,
    )
    hw = (args.hw, args.hw) if args.hw is not None else None
    rep = equivalence_check(cfg, seed=args.seed, hw=hw, precision=args.precision)
    return {
        "command": "equiv",
        "channels": args.channels,
        "heads": rep.heads,
        "groups": rep.groups,
        "lam": args.lam,
        "window": args.window,
        "seed": args.seed,
        "precision": args.precision,
        "max_abs_diff": rep.max_abs_diff,
        "tolerance": rep.tolerance,
        "holds": rep.holds,
        "expected_to_hold": cfg.orders_equivalent,
    }


def _parse_source(text: str) -> tuple[int, int]:
    try:
        r, c = (int(v) for v in text.split(","))
        return r, c
    except ValueError as exc:
        raise ConfigError(f"--source must be 'row,col', got {text!r}") from exc


def cmd_influence(args) -> dict:
    src = _parse_source(args.source)
    block = IRMBConfig(
        args.channels, args.channels, 2.0, kernel=args.kernel, window=args.window,
        heads=1, enable_attn=args.attn == "on", enable_conv=args.conv == "on",
    )
    stack = [block] * args.blocks
    masks = {}
    if args.mode in ("structural", "both"):
        masks["structural"] = analysis.influence_mask(stack, src, args.resolution, mode="structural")
    if args.mode in ("vjp", "both"):
        masks["vjp"] = analysis.influence_mask(stack, src, args.resolution, mode="vjp", seed=args.seed)
    if not masks:
        raise ConfigError(f"unknown influence mode {args.mode!r}")
    first = next(iter(masks.values()))
    doc = {
        "command": "influence",
        "source": list(src),
        "resolution": args.resolution,
        "blocks": args.blocks,
        "kernel": args.kernel,
        "window": args.window,
        "enable_attn": args.attn == "on",
        "enable_conv": args.conv == "on",
        "count": first.count,
        "mask_rows": ["".join("1" if v else "0" for v in row) for row in first.mask],
    }
    if len(masks) == 2:
        doc["modes_agree"] = bool(np.array_equal(masks["structural"].mask, masks["vjp"].mask))
    return doc


def cmd_mpl(args) -> dict:
    if args.kind == "cascade":
        cfg = IRMBConfig(4, 4, 1.0, kernel=args.kernel, window=args.window, heads=1)
    elif args.kind == "conv":
        cfg = IRMBConfig(4, 4, 1.0, kernel=args.kernel, enable_attn=False)
    elif args.kind == "attn":
        cfg = IRMBConfig(4, 4, 1.0, window=args.window, heads=1, enable_conv=False)
    else:
        raise ConfigError(f"unknown kind {args.kind!r}")
    rep = analysis.max_path_length(cfg, args.resolution)
    return {
        "command": "mpl",
        "kind": rep.kind,
        "kernel": args.kernel,
        "window": args.window,
        "resolution": rep.resolution,
        "empirical": rep.empirical,
        "reachable": rep.reachable,
        "closed_form": rep.closed_form,
        "closed_form_expr": rep.closed_form_expr,
    }


def cmd_similarity(args) -> dict:
    cfg = resolve_model_config(args)
    model = build_emo(cfg, seed=args.seed, precision=args.precision)
    x = Tensor(_make_input(args), precision=args.precision)
    sims = analysis.diag_similarity(model, args.stage, x)
    rf = analysis.conv_receptive_radius(cfg, args.stage)
    return {
        "command": "similarity",
        "model": cfg.name,
        "stage": args.stage,
        "resolution": x.shape[2],
        "seed": args.seed,
        "input": args.input,
        "similarities": sims.tolist(),
        "conv_receptive_field": rf,
    }


def cmd_bench(args) -> dict:
    if args.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")
    cfg = resolve_model_config(args)
    model = build_emo(cfg, seed=args.seed, precision=args.precision)
    x = Tensor(_make_input(args), precision=args.precision)
    emo_forward(model, x)  # warm-up
    times, faults = [], []
    for _ in range(args.runs):
        f0 = _minor_faults()
        t0 = time.perf_counter()
        emo_forward(model, x)
        times.append((time.perf_counter() - t0) * 1e3)
        if f0 is not None:
            faults.append(_minor_faults() - f0)
    arr = np.sort(np.asarray(times))
    return {
        "command": "bench",
        "note": "local wall-clock measurement on this machine; reproduces no published figures",
        "model": cfg.name,
        "resolution": x.shape[2],
        "precision": args.precision,
        "runs": len(times),
        "forward_ms": {
            "median": float(np.percentile(arr, 50)),
            "p10": float(np.percentile(arr, 10)),
            "p90": float(np.percentile(arr, 90)),
            "min": float(arr[0]),
            "max": float(arr[-1]),
        },
        "page_faults_per_forward": float(np.median(faults)) if faults else None,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _minor_faults() -> int | None:
    """This process's minor page faults so far, or None without `resource`."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB, or None without `resource`.

    `ru_maxrss` is in KiB on Linux and in bytes on macOS.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / (1 << 10)


# ---------------------------------------------------------------------------
# argument parsing


def _add_model_args(p):
    p.add_argument("--preset", choices=sorted(PRESETS), help="built-in variant")
    p.add_argument("--config", help="path to a variant config JSON")
    p.add_argument("--resolution", type=int, default=224)


def _add_input_args(p):
    """The flags `_make_input` reads; the model is built from the same seed and precision."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=("f32", "f64"), default="f32")
    p.add_argument("--input", default="noise", help="zeros | noise | const:<v> | path to a raw tensor file")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as JSON config errors."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="emo", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="block-by-block model description with cost rollup")
    _add_model_args(p)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("count", help="parameter / MAC report")
    _add_model_args(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("forward", help="run a forward pass")
    _add_model_args(p)
    _add_input_args(p)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("gradcheck", help="analytic VJPs vs central differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", default="all", choices=("primitives", "irmb", "mlp", "all"))
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("equiv", help="order-exchange equivalence of EW-MHSA")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--groups", type=int, default=4)
    p.add_argument("--lambda", type=float, default=2.0, dest="lam", help="expansion ratio")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--hw", type=int, default=None, help="input side length (default 2*window)")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("influence", help="which input pixels reach an output pixel")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--attn", choices=("on", "off"), default="off")
    p.add_argument("--conv", choices=("on", "off"), default="on")
    p.add_argument("--resolution", type=int, default=9)
    p.add_argument("--source", default="4,4", help="output coordinate 'row,col'")
    p.add_argument("--mode", choices=("structural", "vjp", "both"), default="both")
    p.set_defaults(fn=cmd_influence)

    p = sub.add_parser("mpl", help="empirical corner-to-corner path length vs closed form")
    p.add_argument("--kind", choices=("cascade", "conv", "attn"), default="cascade")
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--resolution", type=int, default=8)
    p.set_defaults(fn=cmd_mpl)

    p = sub.add_parser("similarity", help="diagonal cosine-similarity profile of a stage")
    _add_model_args(p)
    _add_input_args(p)
    p.add_argument("--stage", type=int, default=3, choices=(1, 2, 3, 4))
    p.set_defaults(fn=cmd_similarity)

    p = sub.add_parser("bench", help="local forward-pass timing")
    _add_model_args(p)
    _add_input_args(p)
    p.add_argument("--runs", type=int, default=30)
    p.set_defaults(fn=cmd_bench)

    for p in sub.choices.values():  # each subcommand takes --out and only the flags its handler reads
        p.add_argument("--out", help="also write the JSON document to this path")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext()
    except (ConfigError, OSError) as exc:  # an --out path that cannot be opened is a usage error too
        emit({"error": {"code": "config", "message": str(exc)}})
        return EXIT_CONFIG
    except SystemExit as exc:  # -h / --help
        return 0 if exc.code in (0, None) else EXIT_CONFIG
    with out as fh:
        try:
            emit(args.fn(args), fh)  # a non-finite result is an invariant breach too
        except (ConfigError, ValueError) as exc:
            emit({"error": {"code": "config", "message": str(exc)}}, fh)
            return EXIT_CONFIG
        except Exception as exc:  # invariant breaches
            emit({"error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}}, fh)
            return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
