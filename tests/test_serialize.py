import io

import numpy as np
import pytest

from emo import ContainerError, dumps_params, load_params, save_params
from emo.serialize import MAGIC, load_raw_tensor, save_raw_tensor


def sample_params(dtype):
    rng = np.random.default_rng(0)
    return {
        "blk.w": rng.normal(size=(4, 2, 3, 3)).astype(dtype),
        "blk.b": rng.normal(size=(4,)).astype(dtype),
        "scalarish": rng.normal(size=(1,)).astype(dtype),
    }


@pytest.mark.parametrize("precision,dtype", [("f32", np.float32), ("f64", np.float64)])
def test_round_trip_bit_exact(tmp_path, precision, dtype):
    params = sample_params(dtype)
    path = tmp_path / "weights.bin"
    save_params(path, params, precision)
    loaded, prec = load_params(path)
    assert prec == precision
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert loaded[k].shape == params[k].shape
        assert loaded[k].tobytes() == params[k].tobytes()


def test_container_header_layout():
    blob = dumps_params(sample_params(np.float32), "f32")
    assert blob[:8] == MAGIC
    assert blob[8] == 1      # version
    assert blob[9] == 4      # precision byte


def test_container_is_byte_stable():
    p = sample_params(np.float64)
    assert dumps_params(p, "f64") == dumps_params(dict(reversed(list(p.items()))), "f64")


def test_container_rejects_bad_magic():
    with pytest.raises(ContainerError, match="magic"):
        load_params(io.BytesIO(b"NOTRIGHT" + bytes(4)))


def test_container_rejects_wrong_dtype():
    with pytest.raises(ContainerError, match="precision"):
        dumps_params({"w": np.zeros(3, dtype=np.float32)}, "f64")


@pytest.mark.parametrize("dtype", [np.complex64, np.int32, np.int64, np.bool_])
def test_writers_reject_a_non_float_array(tmp_path, dtype):
    # complex64 and int64 share float64's item size, int32 float32's
    arr = np.ones((1, 3, 2, 2), dtype=dtype)
    for precision in ("f32", "f64"):
        with pytest.raises(ContainerError, match="precision"):
            dumps_params({"w": arr}, precision)
    with pytest.raises(ContainerError, match="float32 or float64"):
        save_raw_tensor(tmp_path / "t.bin", arr)
    assert not (tmp_path / "t.bin").exists()


def test_container_rejects_truncation():
    blob = dumps_params(sample_params(np.float32), "f32")
    with pytest.raises(ContainerError, match="truncated"):
        load_params(io.BytesIO(blob[:-3]))


def test_raw_tensor_round_trip(tmp_path):
    arr = np.random.default_rng(1).normal(size=(1, 3, 5, 4)).astype(np.float32)
    path = tmp_path / "input.bin"
    save_raw_tensor(path, arr)
    back = load_raw_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@pytest.mark.parametrize("fmt", ["container", "raw_tensor"])
def test_truncations_and_byte_flips_raise_only_container_error(tmp_path, fmt):
    # every cut and 2000 seeded single-byte flips of a small file: each load
    # either succeeds or raises ContainerError, never a parser exception
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(2, 3)).astype(np.float32)
    if fmt == "container":
        blob, load = dumps_params({"blk.w": arr, "blk.b": arr[0]}, "f32"), load_params
    else:
        save_raw_tensor(tmp_path / "t.bin", arr)
        blob, load = (tmp_path / "t.bin").read_bytes(), load_raw_tensor
    cases = [blob[:cut] for cut in range(len(blob))]
    for pos, bit in zip(rng.integers(0, len(blob), 2000), rng.integers(1, 256, 2000)):
        flipped = bytearray(blob)
        flipped[pos] ^= bit
        cases.append(bytes(flipped))
    for case in cases:
        try:
            load(io.BytesIO(case))
        except ContainerError:
            pass
