"""Span tracing of emo's public functions, installed from outside the library.

A `Tracer` swaps selected functions for timing wrappers at every place a
caller looks them up. Several modules import by name (`from .irmb import
irmb_forward` in model, analysis and the package itself), while autograd
calls `ops.conv2d` through the module, so each traced function is replaced
in every `emo` module namespace that holds it, and methods are replaced on
their class. `installed()` puts every original object back on exit.

Each span records its name, start, end, parent span and request id. Spans
stay in memory until `write` dumps them. A span's self time is its duration
minus the time covered by its direct children; a root span opened by the
benchmark around each request therefore keeps, as self time, exactly the
part of the request that no traced function covers.

References captured before installation (closures, default arguments,
containers of functions) keep the original and are not traced; none of the
traced names is held that way in `emo` today.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time

import numpy as np

# module -> attributes traced in it ("Class.method" for methods). The span
# name is "<module>.<attribute>", without a trailing ".__init__"; conv2d and
# conv2d_vjp spans also carry the variant (pw, dw or dense) of their ConvSpec.
TRACED = {
    "tensor": ("Tensor.__init__", "Rng.normal"),
    "ops": (
        "conv2d", "conv2d_vjp", "matmul", "matmul_vjp",
        "softmax_lastdim", "softmax_lastdim_vjp",
        "batchnorm_inference", "batchnorm_inference_vjp",
        "layernorm_channels", "layernorm_channels_vjp",
        "silu", "silu_vjp", "gelu", "gelu_vjp",
    ),
    "autograd": ("backward",),
    "attention": ("window_partition", "window_merge", "attention_weights", "mix_values"),
    "irmb": ("irmb_forward", "ew_mhsa", "equivalence_check"),
    "mmb": ("mmb_forward",),
    "model": ("build_emo", "emo_forward", "load_model"),
    "serialize": ("save_params", "load_params"),
    "analysis": ("grad_check", "check_primitives", "influence_mask", "count_costs"),
}

NO_REQUEST = -(2 ** 62)  # request id of spans outside any root span

ELEMENTWISE = ("silu", "gelu", "batchnorm_inference", "layernorm_channels", "softmax_lastdim")


def conv_variant(spec) -> str:
    """pw for 1x1 kernels, dw for depth-wise, dense otherwise (the stem)."""
    if spec.kernel == 1:
        return "pw"
    return "dw" if spec.depthwise else "dense"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _conv_work(args, kwargs, out):
    x, w, spec = args[0], args[1], _arg(args, kwargs, 2, "spec")
    b = _arg(args, kwargs, 3, "b")
    n, _, h, wd = x.shape
    nbytes = x.nbytes + w.nbytes + out.nbytes + (np.asarray(b).nbytes if b is not None else 0)
    return spec.macs(h, wd, batch=n), nbytes


def _matmul_work(args, kwargs, out):
    return out.size * args[0].shape[-1], 0


def _elems_work(args, kwargs, out):
    return out.size, 0


def _nodes_work(args, kwargs, out):
    return len(out), 0


def _loaded_bytes_work(args, kwargs, out):
    return 0, sum(arr.nbytes for arr in out[0].values())


# span-name stem -> (function giving (work, bytes) from the call and its
#                    result, function naming the span from the call), or None
_PROBES = {
    "ops.conv2d": (_conv_work, lambda a, kw: "ops.conv2d." + conv_variant(_arg(a, kw, 2, "spec"))),
    "ops.conv2d_vjp": (None, lambda a, kw: "ops.conv2d_vjp." + conv_variant(_arg(a, kw, 3, "spec"))),
    "ops.matmul": (_matmul_work, None),
    "autograd.backward": (_nodes_work, None),
    "serialize.load_params": (_loaded_bytes_work, None),
    **{f"ops.{name}": (_elems_work, None) for name in ELEMENTWISE},
}


class Tracer:
    """Wrappers plus the in-memory span log of one benchmark process."""

    def __init__(self, package):
        self._t0 = time.perf_counter()
        # span: [name, start, end, parent index, request id, work, bytes]
        self.spans: list[list] = []
        self._stack = [-1]
        self.request = NO_REQUEST
        self.patches = self._find_patches(package)

    def _find_patches(self, package) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every lookup site."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        patches = []
        for modname, attrs in TRACED.items():
            module = sys.modules[f"{prefix}.{modname}"]
            for attr in attrs:
                stem = f"{modname}.{attr}".removesuffix(".__init__")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = vars(module)[cls_name]
                    original = vars(owner)[meth]
                    patches.append((owner, meth, original, self._wrap(original, stem)))
                    continue
                original = vars(module)[attr]
                wrapper = self._wrap(original, stem)
                for m in modules:
                    for name, value in vars(m).items():
                        if value is original:
                            patches.append((m, name, original, wrapper))
        return patches

    def _wrap(self, fn, stem):
        work, namer = _PROBES.get(stem, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [stem if namer is None else namer(args, kwargs), 0.0, 0.0, stack[-1], self.request, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5], rec[6] = work(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapper in; put every original object back on exit."""
        try:
            for owner, name, _orig, wrapper in self.patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, orig, _wrapper in self.patches:
                setattr(owner, name, orig)

    def originals_restored(self) -> bool:
        return all(vars(owner)[name] is orig for owner, name, orig, _w in self.patches)

    @contextlib.contextmanager
    def root(self, name: str, request):
        """The benchmark's own span around one request or one set-up."""
        self.request = request
        rec = [name, 0.0, 0.0, -1, request, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.request = NO_REQUEST

    # ------------------------------------------------------------------
    # analysis

    def _columns(self):
        """The span log as arrays, with each span's self time."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        start = np.asarray(cols[1], dtype=np.float64)
        end = np.asarray(cols[2], dtype=np.float64)
        parent = np.asarray(cols[3], dtype=np.int64)
        request = np.asarray(cols[4], dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "names": names,
            "name": np.asarray([code[s[0]] for s in self.spans], dtype=np.int64),
            "start": start, "end": end, "parent": parent, "request": request,
            "self": dur - covered,
            "work": np.asarray(cols[5], dtype=np.float64),
            "bytes": np.asarray(cols[6], dtype=np.float64),
        }

    def totals(self, requests) -> dict[str, dict[str, float]]:
        """name -> summed self seconds, calls, work and bytes over `requests`."""
        c = self._columns()
        keep = np.isin(c["request"], np.asarray(list(requests), dtype=np.int64))
        out = {}
        for i, name in enumerate(c["names"]):
            sel = keep & (c["name"] == i)
            if sel.any():
                out[name] = {
                    "self_s": float(c["self"][sel].sum()),
                    "calls": int(sel.sum()),
                    "work": float(c["work"][sel].sum()),
                    "bytes": float(c["bytes"][sel].sum()),
                }
        return out

    def write(self, path) -> int:
        """Dump every span, column-wise, as gzip-compressed JSON."""
        c = self._columns()
        doc = {
            "clock": "time.perf_counter seconds since the tracer was created",
            "names": c["names"],
            "columns": {
                "name": c["name"].tolist(),
                "start": np.round(c["start"] - self._t0, 9).tolist(),
                "end": np.round(c["end"] - self._t0, 9).tolist(),
                "parent": c["parent"].tolist(),
                "request": c["request"].tolist(),
                "work": c["work"].tolist(),
                "bytes_computed": c["bytes"].tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(self.spans)
