"""Dense NCHW tensors, precision handling, deterministic weight streams, and
`config_from_json`, the one strict reader of JSON configs (block and variant)."""

from __future__ import annotations

import dataclasses
import sys
import types
import typing
import zlib
from dataclasses import dataclass

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}
PRECISIONS = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
# precision -> its dtype in weight and raw tensor files; the item size is their precision byte
FILE_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def dtype_of(precision: str) -> np.dtype:
    try:
        return np.dtype(DTYPES[precision])
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}, expected one of {sorted(DTYPES)}") from None


class Tensor:
    """Immutable 4-D (batch, channel, height, width) array of finite reals.

    This is the boundary type for model inputs/outputs. Entries are validated
    to be finite at construction; internal kernels work on plain ndarrays and
    do not re-validate.
    """

    __slots__ = ("data",)

    def __init__(self, data, precision: str | None = None):
        arr = np.asarray(data)
        if precision is not None:
            arr = arr.astype(dtype_of(precision), copy=False)
        elif arr.dtype not in PRECISIONS:
            arr = arr.astype(np.float64)
        if arr.ndim != 4:
            raise ValueError(f"Tensor must be 4-D (N, C, H, W), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Tensor entries must be finite (found NaN or Inf)")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def precision(self) -> str:
        return PRECISIONS[self.data.dtype]

    @classmethod
    def zeros(cls, shape, precision: str = "f32") -> "Tensor":
        return cls(np.zeros(shape, dtype=dtype_of(precision)))

    @classmethod
    def full(cls, shape, value: float, precision: str = "f32") -> "Tensor":
        return cls(np.full(shape, value, dtype=dtype_of(precision)))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, precision={self.precision})"


def as_nchw(x) -> np.ndarray:
    """Accept a Tensor or a 4-D ndarray, return the backing ndarray."""
    if isinstance(x, Tensor):
        return x.data
    arr = np.asarray(x)
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-D (N, C, H, W) array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Rng:
    """Deterministic weight-stream source.

    Every named stream is an independent PCG64 generator seeded by
    SeedSequence([seed, crc32(name)]). PCG64's bit stream is fixed across
    platforms for a given seed, and keying streams by parameter name makes
    initialization order-independent: the same (seed, name) always yields
    the same scalars.
    """

    seed: int

    def stream(self, name: str) -> np.random.Generator:
        key = zlib.crc32(name.encode("utf-8"))
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, key])))

    def normal(self, name: str, shape, std: float = 1.0, precision: str = "f32") -> np.ndarray:
        # Sample in f64, then cast: the f32 stream is the rounded f64 stream,
        # keeping values comparable across precisions. Scaling in place and an
        # f64 cast that copies nothing leave one array per call in f64.
        vals = self.stream(name).standard_normal(size=shape, dtype=np.float64)
        vals *= std
        return vals.astype(dtype_of(precision), copy=False)

    def uniform(self, name: str, shape, low: float = 0.0, high: float = 1.0, precision: str = "f32") -> np.ndarray:
        vals = self.stream(name).uniform(low, high, size=shape)
        return vals.astype(dtype_of(precision), copy=False)


# ---------------------------------------------------------------------------
# JSON configs


# annotation -> (what a JSON value must be, its test). JSON true is not 1 and 8.0 is
# not 8; an int compares exactly with a float, so 10**400 is not a finite number
_SCALARS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _json_type(hint, where: str) -> tuple[type | None, type, bool]:
    """(container, entry type, takes null) of a field annotation the reader takes."""
    origin, args = typing.get_origin(hint), set(typing.get_args(hint))
    container = origin if origin in (tuple, frozenset) else None
    nullable = origin in (typing.Union, types.UnionType) and type(None) in args
    entries = args - {Ellipsis, type(None)} if container or nullable else {hint}
    entry = entries.pop() if len(entries) == 1 else None
    if entry not in _SCALARS:
        raise TypeError(f"{where}: the JSON config reader takes no field annotated {hint}")
    return container, entry, nullable


def config_from_json(cls, doc, what: str, **defaults):
    """Read the config dataclass `cls` from a parsed JSON document, strictly.

    Its fields are the only keys; one with no default is required unless `defaults`
    gives one. Each annotation is a JSON type: `int` an integer literal, `float` a
    finite number, `str` a string, `int | None` an integer or null, and `tuple` or
    `frozenset` a list of its entry type (distinct entries, for a frozenset). A
    breach raises ValueError naming `what`, the field and the value; value ranges
    are the dataclass's `__post_init__` to check.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    kinds = {f.name: _json_type(hints[f.name], f"{cls.__name__}.{f.name}") for f in fields}
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {what} fields: {unknown}")
    missing = [f.name for f in fields if f.name not in doc and f.name not in defaults
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
    values = dict(defaults)
    for name, value in doc.items():
        container, entry, nullable = kinds[name]
        where = f"{what} field {name!r}"
        if container and not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {type(value).__name__}")
        kind, ok = _SCALARS[entry]
        for v in value if container else (value,):
            if not (ok(v) or nullable and v is None):
                raise ValueError(f"{where}: {v!r} ({type(v).__name__}) is not {kind}{' or null' if nullable else ''}")
        if container is frozenset and len(set(value)) != len(value):
            raise ValueError(f"{where} repeats an entry: {value}")
        values[name] = container(map(entry, value)) if container else value if value is None else entry(value)
    return cls(**values)
