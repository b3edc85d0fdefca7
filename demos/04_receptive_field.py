"""How far can one output pixel see?

Influence masks mark every input pixel with a nonzero path to a chosen
output pixel. Depth-wise convs grow the mask one ring per block; partitioned
window attention fills windows but never crosses their boundaries; the
cascade does both, which is what collapses the corner-to-corner path length.
"""

import numpy as np

from emo import IRMBConfig, influence_mask, max_path_length


def show(mask, source):
    for r, row in enumerate(mask):
        print("   " + "".join("S" if (r, c) == source else ("#" if v else ".")
                              for c, v in enumerate(row)))


conv = IRMBConfig(4, 4, 2.0, kernel=3, enable_attn=False)
attn = IRMBConfig(4, 4, 2.0, window=4, heads=2, expand_groups=2, enable_conv=False)
cascade = IRMBConfig(4, 4, 2.0, kernel=3, window=4, heads=2, expand_groups=2)

print("two conv-only blocks: a 5x5 Chebyshev ball")
show(influence_mask([conv] * 2, (5, 5), 11).mask, (5, 5))

print()
print("three window-only blocks (w=4): influence never leaves the source window")
show(influence_mask([attn] * 3, (1, 1), 11).mask, (1, 1))

print()
print("one cascade block: the window fills, then the conv ring leaks past it")
show(influence_mask([cascade], (1, 1), 11).mask, (1, 1))

print()
print("structural reachability and differentiated reachability agree:")
a = influence_mask([cascade] * 2, (5, 5), 11, mode="structural")
b = influence_mask([cascade] * 2, (5, 5), 11, mode="vjp", seed=0)
print("  masks equal:", np.array_equal(a.mask, b.mask), f"({a.count} pixels)")

print()
print("=== corner-to-corner path lengths (blocks needed) ===")
print(f"{'kind':<18} {'W':>3} {'empirical':>9} {'closed form':>11}")
for W in (8, 14, 28, 224):
    c = max_path_length(conv, W)
    print(f"{'conv only k=3':<18} {W:>3} {c.empirical:>9} {c.closed_form:>11}")
    g = max_path_length(IRMBConfig(4, 4, 2.0, kernel=3, window=W, heads=1), W)
    print(f"{'cascade w=W':<18} {W:>3} {g.empirical:>9} {g.closed_form:>11}")
    s = max_path_length(IRMBConfig(4, 4, 2.0, kernel=3, window=4, heads=1), W)
    print(f"{'cascade w=4':<18} {W:>3} {s.empirical:>9} {s.closed_form:>11}")
    a_ = max_path_length(IRMBConfig(4, 4, 2.0, window=4, heads=1, enable_conv=False), W)
    print(f"{'window only w=4':<18} {W:>3} {str(a_.empirical):>9} {'unreachable':>11}")

print()
print("note: with non-overlapping windows an attention hop reaches the window")
print("edge, not a full window further, so small-w cascades can need more")
print("blocks than the quoted ceil(2W/(k-1+2w)) - the table makes this visible")
print("while staying strictly below the conv-only count whenever w > 1.")
