"""The benchmark workloads: inputs from a seed, set-up, requests, checks.

Each workload is a closed loop with one caller. The benchmark generates every
input from the workload seed and hands the program plain arrays. Library
functions are always looked up through their module at call time
(`self.emo.emo_forward`, `self.emo.autograd.backward`), so the traced run
sees every call the workload makes.

Checks run outside the timed section of a request. `check` runs right after
each request; `reference_failures` runs once after the timed phase and
compares the first output of every pooled input with an independent
reference (f64 logits, or a directional f64 central difference).
"""

from __future__ import annotations

import traceback

import numpy as np

INFER_POOL = 4      # distinct images cycled by infer-1m-b1-f32
SALIENCY_POOL = 2   # distinct (batch, classes) pairs cycled by the saliency workload

INFER_TOL = 1e-4        # max |f32 logits - f64 logits|
SALIENCY_REPEAT_RTOL = 1e-10  # repeat of one input vs its first gradient
SALIENCY_FD_RTOL = 1e-5       # analytic vs central-difference directional derivative
SALIENCY_FD_STEP = 1e-3
GRADCHECK_TOL = 1e-4          # the rule of `emo gradcheck` and the tests
METER_FIELDS = ("macs", "softmax_elems", "bias_adds", "norm_elems", "act_elems")


def tiny_variant(emo):
    """The smallest model shape the smoke test and the desk suite run."""
    return emo.EMOVariantConfig("tiny", (1, 1, 2, 1), (8, 8, 16, 16), (2.0, 2.0, 2.0, 2.0))


def static_counts(emo, cfg, resolution: int, batch: int) -> dict[str, int]:
    """count_costs totals for one forward of `batch` items, other_adds included."""
    rep = emo.analysis.count_costs(cfg, resolution)
    counts = {f: batch * getattr(rep, "contraction_macs" if f == "macs" else f) for f in METER_FIELDS}
    counts["other_adds"] = batch * sum(line.other_adds for line in rep.lines)
    return counts


def meter_counts(meter) -> dict[str, int]:
    return {f: getattr(meter, f) for f in (*METER_FIELDS, "other_adds")}


class ModelWorkload:
    """Shared set-up of the two model workloads: build, save, load, warm up."""

    name = ""
    items_per_request = 1
    precision = "f32"

    def __init__(self, emo, seed: int, tiny: bool, workdir):
        self.emo = emo
        self.seed = seed
        self.cfg = tiny_variant(emo) if tiny else emo.preset("emo-1m")
        self.resolution = 64 if tiny else self.full_resolution
        self.path = workdir / f"{self.name}.emow"
        self.rng = np.random.default_rng([seed, 0xBE7C])
        self.pool = self.make_pool()
        self.model = None
        self.drift = 0.0  # worst reference error seen (see reference_ok)
        self.first: dict[int, np.ndarray] = {}      # pool index -> first output
        self.requests_of: dict[int, list[int]] = {}  # pool index -> request ids

    def setup(self) -> None:
        emo = self.emo
        built = emo.build_emo(self.cfg, seed=self.seed, precision=self.precision)
        emo.save_model(built, self.path)
        self.model = emo.load_model(self.cfg, self.path)
        self.path.unlink()
        self.request(-1)

    def pool_index(self, i: int) -> int:
        return i % len(self.pool)

    def remember(self, i: int, out) -> np.ndarray | None:
        """Record request i; return the first output of its input, or None."""
        p = self.pool_index(i)
        self.requests_of.setdefault(p, []).append(i)
        return self.first.setdefault(p, out) if out is not None else self.first.get(p)

    def reference_failures(self) -> set[int]:
        failed = set()
        for p, out in self.first.items():
            try:
                ok = self.reference_ok(p, out)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                failed.update(self.requests_of[p])
        return failed

    def metered(self):
        """Counts of one forward, metered, next to the static counts."""
        with self.emo.cost_meter() as m:
            self.request(0)
        return meter_counts(m), static_counts(self.emo, self.cfg, self.resolution, self.items_per_request)


class Infer(ModelWorkload):
    """emo-1m at 224, batch 1, f32: the paper's mobile-latency case."""

    name = "infer-1m-b1-f32"
    full_resolution = 224

    def make_pool(self):
        shape = (1, 3, self.resolution, self.resolution)
        return [self.rng.uniform(-1.0, 1.0, shape).astype(np.float32) for _ in range(INFER_POOL)]

    def request(self, i: int):
        x = self.pool[self.pool_index(i)]
        return self.emo.emo_forward(self.model, self.emo.Tensor(x))

    def check(self, i: int, out) -> bool:
        ok = (out is not None and out.shape == (1, self.cfg.num_classes)
              and out.dtype == np.float32 and bool(np.all(np.isfinite(out))))
        first = self.remember(i, out if ok else None)
        # a repeated image must give bit-identical logits within a run
        return ok and first is not None and np.array_equal(out, first)

    def reference_ok(self, p: int, out) -> bool:
        emo = self.emo
        params = {k: v.astype(np.float64) for k, v in self.model.params.items()}
        model64 = emo.EMOModel(cfg=self.cfg, precision="f64", seed=self.model.seed, params=params)
        ref = emo.emo_forward(model64, self.pool[p].astype(np.float64))
        drift = float(np.max(np.abs(out - ref)))
        self.drift = max(self.drift, drift)
        return drift <= INFER_TOL


class Saliency(ModelWorkload):
    """Input gradient of one class logit per image, emo-1m at 160, batch 2, f64."""

    name = "saliency-1m-b2-f64-r160"
    items_per_request = 2
    precision = "f64"
    full_resolution = 160

    def make_pool(self):
        shape = (2, 3, self.resolution, self.resolution)
        return [(self.rng.uniform(-1.0, 1.0, shape),
                 self.rng.integers(0, self.cfg.num_classes, size=2))
                for _ in range(SALIENCY_POOL)]

    def cotangent(self, classes) -> np.ndarray:
        cot = np.zeros((len(classes), self.cfg.num_classes))
        cot[np.arange(len(classes)), classes] = 1.0
        return cot

    def request(self, i: int):
        emo = self.emo
        x, classes = self.pool[self.pool_index(i)]
        xv = emo.autograd.Var(x)
        logits = emo.emo_forward(self.model, xv)
        grads = emo.autograd.backward(logits, self.cotangent(classes))
        return emo.autograd.grad_of(grads, xv)

    def check(self, i: int, out) -> bool:
        x, _ = self.pool[self.pool_index(i)]
        ok = out is not None and out.shape == x.shape and bool(np.all(np.isfinite(out)))
        first = self.remember(i, out if ok else None)
        if not ok or first is None:
            return False
        return float(np.max(np.abs(out - first))) <= SALIENCY_REPEAT_RTOL * float(np.max(np.abs(first)))

    def reference_ok(self, p: int, grad) -> bool:
        """Directional f64 central difference along a seeded unit direction."""
        x, classes = self.pool[p]
        cot = self.cotangent(classes)
        v = np.random.default_rng([self.seed, p, 0xFD]).standard_normal(x.shape)
        v /= np.linalg.norm(v)

        def f(xx):
            return float((self.emo.emo_forward(self.model, xx) * cot).sum())

        fd = (f(x + SALIENCY_FD_STEP * v) - f(x - SALIENCY_FD_STEP * v)) / (2 * SALIENCY_FD_STEP)
        an = float((grad * v).sum())
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-12)
        self.drift = max(self.drift, rel)
        return rel <= SALIENCY_FD_RTOL


class VerifyDesk:
    """One request is one pass of the desk-verification suite, seeded per request."""

    name = "verify-desk"
    items_per_request = 1
    resolution = 64
    influence_resolution = 7

    def __init__(self, emo, seed: int, tiny: bool, workdir):
        self.emo = emo
        self.seed = seed
        self.tiny_cfg = tiny_variant(emo)
        IRMBConfig, MMBConfig = emo.IRMBConfig, emo.MMBConfig
        self.gradcheck_targets = {
            "grad_check.irmb_attn": IRMBConfig(8, 8, 2.0, window=4, heads=2, expand_groups=2),
            "grad_check.irmb_mlp": IRMBConfig(8, 8, 2.0, enable_attn=False, enable_conv=False),
            "grad_check.mmb_ewmhsa_dwconv": MMBConfig(
                8, 2.0, operator="ewmhsa_dwconv", window=4, heads=2, pre_norm="layernorm",
                expand_act="gelu", operator_norm="batchnorm", operator_act="silu"),
        }
        self.equiv_targets = {
            "equivalence.groups_eq_heads": IRMBConfig(8, 8, 2.0, window=2, heads=4, expand_groups=4),
            "equivalence.groups_ne_heads": IRMBConfig(8, 8, 2.0, window=2, heads=4, expand_groups=1),
        }
        self.influence_stack = [IRMBConfig(4, 4, 2.0, kernel=3, window=2, heads=2, expand_groups=2)] * 2
        self.failed_checks: dict[str, int] = {}  # check name -> requests it failed in
        self.last_meter = None  # (metered, static) counts of the latest pass

    def request_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i + 1]).generate_state(1)[0] & 0x7FFFFFFF)

    def setup(self) -> None:
        self.request(-1)

    def request(self, i: int) -> dict[str, bool]:
        """Run the suite; return check name -> passed."""
        emo, an = self.emo, self.emo.analysis
        s = self.request_seed(i)
        rng = np.random.default_rng(s)
        passed = {}
        for key, target in self.gradcheck_targets.items():
            passed[key] = an.grad_check(target, seed=s, input_hw=(8, 8)).max_rel_err < GRADCHECK_TOL
        passed["check_primitives"] = max(an.check_primitives(seed=s).values()) < GRADCHECK_TOL
        for key, cfg in self.equiv_targets.items():
            passed[key] = emo.equivalence_check(cfg, seed=s).holds == cfg.orders_equivalent
        src = tuple(int(v) for v in rng.integers(0, self.influence_resolution, size=2))
        structural = an.influence_mask(self.influence_stack, src, self.influence_resolution, mode="structural")
        vjp = an.influence_mask(self.influence_stack, src, self.influence_resolution, mode="vjp", seed=s)
        passed["influence.structural_eq_vjp"] = bool(np.array_equal(structural.mask, vjp.mask))
        model = emo.build_emo(self.tiny_cfg, seed=s, precision="f32")
        x = rng.uniform(-1.0, 1.0, (1, 3, self.resolution, self.resolution)).astype(np.float32)
        with emo.cost_meter() as m:
            emo.emo_forward(model, emo.Tensor(x))
        self.last_meter = meter_counts(m), static_counts(emo, self.tiny_cfg, self.resolution, 1)
        passed["meter.static_eq_metered"] = all(self.last_meter[0][f] == self.last_meter[1][f]
                                                for f in METER_FIELDS)
        return passed

    def check(self, i: int, out) -> bool:
        if out is None:
            return False
        for key, ok in out.items():
            if not ok:
                self.failed_checks[key] = self.failed_checks.get(key, 0) + 1
        return all(out.values())

    def reference_failures(self) -> set[int]:
        return set()

    def metered(self):
        """Counts of the suite's metered tiny forward in the latest pass."""
        return self.last_meter


class GradCheckMMB:
    """One request is `analysis.grad_check` of one MMB at 28x28, seeded per request.

    This is the desk gradient check at a size where the forward kernels, not
    per-call overhead, take most of the time, so it stays steady on a host
    whose interpreter speed drifts. It runs `mmb` and `analysis` in a gated
    workload; `verify-desk` runs them at the desk sizes.
    """

    name = "gradcheck-mmb-c64-r28"
    items_per_request = 1
    hw = 28
    num_coords = 20

    def __init__(self, emo, seed: int, tiny: bool, workdir):
        self.emo = emo
        self.seed = seed
        channels, self.hw = (8, 8) if tiny else (64, self.hw)
        self.cfg = emo.MMBConfig(channels, 4.0, operator="ewmhsa_dwconv", window=4 if tiny else 7, heads=4,
                                 pre_norm="layernorm", expand_act="gelu", operator_norm="batchnorm",
                                 operator_act="silu")
        self.failed_checks: dict[str, int] = {}
        self.checked: list[int] = []  # request ids seen by check
        self.drift = 0.0  # worst gradcheck error seen

    def request_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i + 1, 0x3B]).generate_state(1)[0] & 0x7FFFFFFF)

    def setup(self) -> None:
        self.request(-1)

    def request(self, i: int):
        return self.emo.analysis.grad_check(self.cfg, seed=self.request_seed(i), input_hw=(self.hw, self.hw),
                                            num_coords=self.num_coords)

    def check(self, i: int, out) -> bool:
        self.checked.append(i)
        ok = out is not None and out.max_rel_err < GRADCHECK_TOL
        if out is not None:
            self.drift = max(self.drift, out.max_rel_err)
        if not ok:
            self.failed_checks["grad_check.mmb"] = self.failed_checks.get("grad_check.mmb", 0) + 1
        return ok

    def metered(self):
        """Counts of one metered MMB forward at batch 1, next to count_costs."""
        emo = self.emo
        params = emo.mmb.mmb_init_params(self.cfg, emo.Rng(self.seed), precision="f64")
        x = np.random.default_rng([self.seed, 0x3B]).standard_normal((1, self.cfg.channels, self.hw, self.hw))
        with emo.cost_meter() as m:
            emo.mmb.mmb_forward(x, self.cfg, params)
        return meter_counts(m), static_counts(emo, self.cfg, self.hw, 1)

    def reference_failures(self) -> set[int]:
        """Every request fails when the metered forward disagrees with count_costs."""
        meter, static = self.metered()
        if all(meter[f] == static[f] for f in METER_FIELDS):
            return set()
        self.failed_checks["meter.static_eq_metered"] = 1
        return set(self.checked)


WORKLOADS = {cls.name: cls for cls in (Infer, Saliency, VerifyDesk, GradCheckMMB)}
