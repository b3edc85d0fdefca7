"""Building the variants, checking their gradients, shipping their weights.

Models build deterministically from a seed (each parameter draws from its
own named stream, so initialization order is irrelevant), every primitive
carries a hand-written VJP that survives finite-difference scrutiny, and
weights round-trip bit-exactly through the flat binary container.
"""

import io

import numpy as np

from emo import (
    IRMBConfig, Rng, Tensor, build_emo, dumps_params, emo_forward,
    grad_check, load_params, preset,
)
from emo.analysis import check_primitives

print("=== deterministic assembly ===")
m1 = build_emo("emo-1m", seed=7, precision="f32")
m2 = build_emo("emo-1m", seed=7, precision="f32")
print("two builds, same seed, identical containers:",
      dumps_params(m1.params, "f32") == dumps_params(m2.params, "f32"))
print("emo-1m blocks:", len(m1.cfg.blocks), " parameters:",
      sum(v.size for k, v in m1.params.items() if not k.endswith((".mean", ".var"))))

print()
print("=== forward pass ===")
x = Tensor(Rng(0).uniform("img", (1, 3, 224, 224), -1, 1, "f32"))
logits = emo_forward(m1, x)
print("logits:", logits.shape, "finite:", bool(np.all(np.isfinite(logits))))

print()
print("=== gradients survive finite differences ===")
for name, err in sorted(check_primitives(seed=0).items()):
    print(f"  {name:<22} max rel err {err:.2e}")
blk = grad_check(IRMBConfig(8, 8, 2.0, window=4, heads=2, expand_groups=2), seed=0)
print(f"  {'full iRMB':<22} max rel err {blk.max_rel_err:.2e} ({blk.coords_checked} coords)")

print()
print("=== weight container round trip ===")
blob = dumps_params(m1.params, "f32")
loaded, precision = load_params(io.BytesIO(blob))
same = all(loaded[k].tobytes() == v.tobytes() for k, v in m1.params.items())
print(f"container: {len(blob):,} bytes, precision {precision}, bit-exact: {same}")
