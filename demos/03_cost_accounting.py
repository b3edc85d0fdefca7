"""Exact cost accounting, three ways.

1. closed forms for the four classic modules,
2. a static walk over a model configuration,
3. a meter that counts the work the kernels actually execute.

The three agree exactly: the static count of an isolated module equals the
closed form, and a metered forward pass reproduces the static count MAC for
MAC.

The meter, each cost line and the report are one record, `CostMeter`: every
counted field has one name on all three, so `rep.macs` are contraction MACs
like `meter.macs`. The paper's MACs, and the `macs` of the report's JSON, are
flops / 2, which count each softmax element as 1.5. (`rep.contraction_macs`
is the benchmark's name for `rep.macs`, kept until the benchmark reads `macs`.)
"""

import dataclasses

import numpy as np

from emo import (
    CostMeter, EMOVariantConfig, MMBConfig, build_emo, cost_meter, count_costs,
    emo_forward, formula_costs, preset,
)
from emo.ops import ConvSpec

print("=== closed forms vs direct counts (heads=1, lambda=1) ===")
for C, W in [(8, 4), (16, 8)]:
    f = formula_costs("mhsa", C=C, W=W)
    rep = count_costs(MMBConfig(C, 1.0, operator="ewmhsa", heads=1), W)
    print(f"MHSA    C={C:2d} W={W}: closed params {f['params']:6,} flops {f['flops']:9,}"
          f" | direct {rep.params:6,} / {rep.flops:9,}  equal={f['params'] == rep.params and f['flops'] == rep.flops}")
for C, k, W in [(8, 3, 4), (16, 5, 8)]:
    f = formula_costs("dw-conv", C=C, k=k, W=W)
    rep = count_costs(ConvSpec(C, C, kernel=k, padding=(k - 1) // 2, groups=C), W)
    print(f"DW-conv C={C:2d} k={k} W={W}: closed params {f['params']:6,} flops {f['flops']:9,}"
          f" | direct {rep.params:6,} / {rep.flops:9,}  equal={f['params'] == rep.params and f['flops'] == rep.flops}")

print()
print("=== the four variants at 224^2 ===")
for name in ("emo-1m", "emo-2m", "emo-5m", "emo-6m"):
    rep = count_costs(preset(name), 224)
    print(f"{name}: {rep.params:9,} params   {rep.flops / 2e6:7.1f}M MACs   {rep.flops / 1e9:6.2f}G FLOPs")

print()
print("=== category breakdown of emo-5m ===")
print(count_costs(preset("emo-5m"), 224).as_text())

print()
print("=== static vs executed, field by field (a real cross-check of the shape arithmetic) ===")
tiny = EMOVariantConfig("tiny", (1, 1, 2, 1), (8, 16, 16, 24), (2.0, 2.0, 3.0, 2.0))
model = build_emo(tiny, seed=0, precision="f32")
with cost_meter() as meter:
    emo_forward(model, np.zeros((1, 3, 96, 96), dtype=np.float32))
rep = count_costs(tiny, 96)
for f in dataclasses.fields(CostMeter):
    executed, static = getattr(meter, f.name), getattr(rep, f.name)
    print(f"executed {f.name} {executed:,} | static {static:,} | equal={executed == static}")
print(f"executed FLOPs {meter.flops:,} | static {rep.flops:,} | equal={meter.flops == rep.flops}")
