"""Flat binary weight container.

Layout (all integers little-endian):

    8 bytes   magic  b"EMOWTS01"
    1 byte    container version (1)
    1 byte    precision: the item size, 4 = float32, 8 = float64
    records until EOF, each:
        u16   name length
        ...   name (UTF-8)
        u8    ndim
        u32 * ndim   dims
        raw little-endian scalars (ndim product * precision bytes)

Records are written in sorted-name order so equal parameter sets produce
byte-identical files. Round-trips are bit-exact. Both writers take only
float32 and float64 arrays; any other dtype raises `ContainerError`.

This container and the raw tensor files below share one bounds-checked
reader: a short read, a non-UTF-8 name or a shape larger than the bytes
left raises `ContainerError`. A cut at a record boundary still loads.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct

import numpy as np

from .tensor import FILE_DTYPES

MAGIC = b"EMOWTS01"
VERSION = 1


class ContainerError(ValueError):
    pass


def save_params(path_or_file, params: dict[str, np.ndarray], precision: str) -> None:
    if precision not in FILE_DTYPES:
        raise ContainerError(f"unknown precision {precision!r}")
    dtype = FILE_DTYPES[precision]

    with _opened(path_or_file, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", VERSION, dtype.itemsize))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name])
            if arr.dtype.newbyteorder("<") != dtype:
                raise ContainerError(
                    f"parameter {name!r} has dtype {arr.dtype}, container precision is {precision}"
                )
            nbytes = name.encode("utf-8")
            if len(nbytes) > 0xFFFF:
                raise ContainerError(f"parameter name too long: {name!r}")
            if arr.ndim > 0xFF:
                raise ContainerError(f"parameter {name!r} has too many dimensions")
            fh.write(struct.pack("<H", len(nbytes)))
            fh.write(nbytes)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(dtype, copy=False).tobytes(order="C"))


@contextlib.contextmanager
def _opened(path_or_file, mode: str):
    """Open (and close) a path; use an open file object as it is."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, mode) as fh:
            yield fh
    else:
        yield path_or_file


class _Reader:
    """Reads a binary file front to back; every read is checked against the bytes left."""

    def __init__(self, fh):
        self.fh = fh
        start = fh.tell()
        self.left = fh.seek(0, io.SEEK_END) - start
        fh.seek(start)

    def take(self, n: int, what: str) -> bytes:
        chunk = self.fh.read(n) if n <= self.left else b""
        if len(chunk) != n:
            raise ContainerError(f"truncated {what}")
        self.left -= n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def header(self, magic: bytes, what: str) -> tuple[int, int]:
        """Check the 8-byte magic and return the two bytes after it."""
        if self.left < 10 or self.take(8, what) != magic:
            raise ContainerError(f"not a {what} (bad magic)")
        return self.unpack("<BB", what)

    def name(self) -> str:
        (nlen,) = self.unpack("<H", "record header")
        try:
            return self.take(nlen, "record name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"parameter name is not UTF-8: {exc}") from None

    def array(self, dtype: np.dtype, ndim: int, what: str) -> np.ndarray:
        shape = self.unpack(f"<{ndim}I", f"shape of {what}")
        raw = self.take(math.prod(shape) * dtype.itemsize, f"data for {what}")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _precision(pbyte: int) -> str:
    for precision, dtype in FILE_DTYPES.items():
        if dtype.itemsize == pbyte:
            return precision
    raise ContainerError(f"unsupported precision byte {pbyte}")


def load_params(path_or_file) -> tuple[dict[str, np.ndarray], str]:
    with _opened(path_or_file, "rb") as fh:
        rd = _Reader(fh)
        version, pbyte = rd.header(MAGIC, "weight container")
        if version != VERSION:
            raise ContainerError(f"unsupported container version {version}")
        precision = _precision(pbyte)
        params: dict[str, np.ndarray] = {}
        while rd.left:
            name = rd.name()
            (ndim,) = rd.unpack("<B", f"record of parameter {name!r}")
            arr = rd.array(FILE_DTYPES[precision], ndim, f"parameter {name!r}")
            if name in params:
                raise ContainerError(f"duplicate parameter {name!r}")
            arr.setflags(write=False)
            params[name] = arr
    return params, precision


def dumps_params(params: dict[str, np.ndarray], precision: str) -> bytes:
    buf = io.BytesIO()
    save_params(buf, params, precision)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# raw tensor files (planar binary input for the CLI)
#
#     8 bytes  magic b"EMOTEN01"
#     u8       precision: 4 = float32, 8 = float64
#     u8       ndim
#     u32 * ndim  dims
#     raw little-endian scalars

TENSOR_MAGIC = b"EMOTEN01"


def save_raw_tensor(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array)
    dtype = arr.dtype.newbyteorder("<")
    if dtype not in FILE_DTYPES.values():
        raise ContainerError(f"raw tensors must be float32 or float64, got {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<BB", dtype.itemsize, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype(dtype, copy=False).tobytes(order="C"))


def load_raw_tensor(path_or_file) -> np.ndarray:
    with _opened(path_or_file, "rb") as fh:
        rd = _Reader(fh)
        pbyte, ndim = rd.header(TENSOR_MAGIC, "raw tensor file")
        return rd.array(FILE_DTYPES[_precision(pbyte)], ndim, "raw tensor")
