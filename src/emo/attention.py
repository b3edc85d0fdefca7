"""Window partitioning and the expanded-window attention core.

Maps are tiled into non-overlapping w x w windows (bottom/right zero-padded
to a multiple of w); attention runs per window, per head. Padded key slots
are masked out of the softmax, so attention rows always sum to 1 over real
positions - this is what makes the pre-/post-expansion multiplication orders
agree exactly (biases included) on every map shape, not just divisible ones.

Partition maps (N, C, H, W) straight to per-head tokens (N * num_windows,
heads, l, C/heads), each head a contiguous block of channels, and merge maps
them back, so the attention core reads the head count from the token shape.
Merge copies a map of several window columns once, from the tokens straight
into NCHW. A single window (or one column of windows) keeps the channels-last
view of its head-merged tokens instead: a grouped 1x1 conv reading the map
rounds differently on a C-contiguous copy, so that layout is part of the
model's bits.

All functions work on plain arrays and on tape Vars alike. The attention
core goes through the autograd wrappers. Partition and merge are linear and
each is the other's transpose (merge drops exactly the zeros partition pads
with), so each is recorded as one `autograd.linear` node whose VJP is the
other map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as T

MASK_NEG = -1e30


@dataclass(frozen=True)
class WindowLayout:
    """Geometry of one partition: grid of windows covering a padded map."""

    height: int
    width: int
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def grid_h(self) -> int:
        return math.ceil(self.height / self.window)

    @property
    def grid_w(self) -> int:
        return math.ceil(self.width / self.window)

    @property
    def pad_h(self) -> int:
        return self.grid_h * self.window - self.height

    @property
    def pad_w(self) -> int:
        return self.grid_w * self.window - self.width

    @property
    def num_windows(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def tokens_per_window(self) -> int:
        return self.window * self.window


def _partition(x: np.ndarray, layout: WindowLayout, heads: int) -> np.ndarray:
    """Pad (N, C, H, W) at the bottom/right and tile it into (N * num_windows, heads, l, C/heads) tokens."""
    n, c = x.shape[:2]
    w = layout.window
    if layout.pad_h or layout.pad_w:
        xp = np.zeros((n, c, layout.grid_h * w, layout.grid_w * w), x.dtype)
        xp[:, :, : layout.height, : layout.width] = x
        x = xp
    t = x.reshape(n, c, layout.grid_h, w, layout.grid_w, w)
    t = t.transpose(0, 2, 4, 3, 5, 1)  # (N, gh, gw, w, w, C)
    t = t.reshape(n * layout.num_windows, w * w, heads, c // heads)
    return t.transpose(0, 2, 1, 3)  # contiguous channel blocks per head


def _merge(tokens: np.ndarray, layout: WindowLayout, batch: int) -> np.ndarray:
    """Untile per-head tokens (N * num_windows, heads, l, C/heads) into (N, C, H, W), dropping the padding.

    A map of several window columns is copied once, from the tokens straight
    into a C-contiguous padded NCHW map. On one window column (a single
    window among them) or 1x1 windows, untiling the heads-merged tokens is a
    view, so the map keeps that channels-last view of the one head-merge
    copy: a grouped 1x1 conv reading it rounds differently on a C-contiguous
    copy.
    """
    w, gh, gw = layout.window, layout.grid_h, layout.grid_w
    heads, d = tokens.shape[1], tokens.shape[3]
    if gw > 1 and w > 1:
        t = tokens.reshape(batch, gh, gw, heads, w, w, d)
        t = t.transpose(0, 3, 6, 1, 4, 2, 5)  # (N, heads, d, gh, w, gw, w)
    else:
        t = tokens.transpose(0, 2, 1, 3).reshape(batch, gh, gw, w, w, heads * d)
        t = t.transpose(0, 5, 1, 3, 2, 4)  # (N, C, gh, w, gw, w)
    t = t.reshape(batch, heads * d, gh * w, gw * w)
    return t[:, :, :layout.height, :layout.width]


def window_partition(x, window: int, heads: int):
    """(N, C, H, W) -> per-head tokens (N * num_windows, heads, l, C/heads) plus the layout."""
    n, c, h, wd = T.val(x).shape
    if c % heads:
        raise ValueError(f"{heads} heads do not divide {c} channels")
    layout = WindowLayout(h, wd, window)
    return T.linear(x, _partition(T.val(x), layout, heads), lambda g: _merge(g, layout, n)), layout


def window_merge(tokens, layout: WindowLayout, batch: int):
    """Inverse of window_partition: per-head tokens back to (N, C, H, W), without the padding."""
    heads = T.val(tokens).shape[1]
    return T.linear(tokens, _merge(T.val(tokens), layout, batch), lambda g: _partition(g, layout, heads))


def key_padding_bias(layout: WindowLayout, batch: int, dtype) -> np.ndarray | None:
    """Additive logit bias (N*nW, 1, 1, l) that removes padded keys, or None.

    A map of ones goes through the same tiling as the tokens: a key slot is
    padding where its partitioned one is 0.
    """
    if layout.pad_h == 0 and layout.pad_w == 0:
        return None
    ones = _partition(np.ones((batch, 1, layout.height, layout.width), dtype), layout, 1)
    bias = np.where(ones == 0, MASK_NEG, 0.0).astype(dtype)
    return bias.reshape(batch * layout.num_windows, 1, 1, layout.tokens_per_window)


def attention_weights(q_tokens, k_tokens, key_bias=None):
    """Per-window, per-head softmax attention from query/key tokens.

    Logits are scaled by 1/sqrt(head_dim of Q/K); padded keys (key_bias)
    are pushed to -inf before the softmax.
    """
    scale = 1.0 / math.sqrt(T.val(q_tokens).shape[-1])
    logits = T.matmul(q_tokens, T.transpose(k_tokens, (0, 1, 3, 2)))
    del q_tokens, k_tokens  # where the caller handed over its only references, the tokens die here
    logits = T.scale(logits, scale)
    if key_bias is not None:
        logits = T.add(logits, key_bias)
    return T.softmax_lastdim(logits)


def mix_values(attn, v_tokens):
    """Apply each head's attention matrix to its value tokens."""
    return T.matmul(attn, v_tokens)
