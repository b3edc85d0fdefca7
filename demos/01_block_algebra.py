"""One block template, three classic blocks.

The meta mobile block is expand -> operator -> shrink -> residual. Choosing
the operator and the expansion ratio turns the same template into an
inverted residual block (depth-wise conv operator), a transformer FFN
(identity operator, 4x expansion), or a windowed attention block (attention
operator at 1x). The iRMB then cascades attention and conv behind two
switches.

A cost report counts in the fields of `emo.CostMeter`, the same record a
metered forward fills; its `macs` are contraction MACs, and the MACs printed
here are the paper's, flops / 2.
"""

import numpy as np

from emo import (
    IRMBConfig, MMBConfig, Rng, count_costs, irmb_forward,
    mmb_forward, mmb_init_params, mmb_instantiate, random_block_params,
)

rng = Rng(0)

print("=== the three instantiations ===")
for name, preset_args in [("irb", dict(expansion_ratio=4.0)),
                          ("ffn", {}),
                          ("mhsa", {})]:
    cfg = mmb_instantiate(name, 16, **preset_args)
    rep = count_costs(cfg, resolution=8)
    print(f"{name:5s} operator={cfg.operator:13s} mid={cfg.mid_channels:3d} "
          f"params={rep.params:6,} macs@8x8={rep.flops / 2:10,.0f}")

print()
print("=== the residual makes a zeroed shrink MLP an exact identity ===")
cfg = mmb_instantiate("irb", 8, 2.0)
params = dict(mmb_init_params(cfg, rng, precision="f64"))
for k in list(params):
    if k.startswith("shrink."):
        params[k] = np.zeros_like(params[k])
x = rng.normal("x", (1, 8, 6, 6), precision="f64")
y = mmb_forward(x, cfg, params)
print("max |block(x) - x| with zeroed shrink:", np.abs(y - x).max())

print()
print("=== iRMB: two switches select the operator ===")
for attn, conv in [(False, False), (True, False), (False, True), (True, True)]:
    cfg = IRMBConfig(16, 16, 2.0, window=4, heads=2, expand_groups=2,
                     enable_attn=attn, enable_conv=conv)
    rep = count_costs(cfg, resolution=8)
    cats = rep.by_category()
    y = irmb_forward(rng.normal("xx", (1, 16, 8, 8), precision="f64"),
                     cfg, random_block_params(cfg, seed=1))
    print(f"attn={str(attn):5s} conv={str(conv):5s} -> params {rep.params:6,} "
          f"(attention {cats['attention']['params']:5,}, dwconv {cats['dwconv']['params']:4,})"
          f"  out shape {y.shape}")

print()
print("=== stride-2 block downsamples through the depth-wise conv ===")
cfg = IRMBConfig(16, 24, 2.0, window=4, heads=2, stride=2)
y = irmb_forward(rng.normal("xs", (1, 16, 8, 8), precision="f64"),
                 cfg, random_block_params(cfg, seed=2))
print("8x8 input ->", y.shape, "(no outer residual at stride 2)")
