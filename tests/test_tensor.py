import numpy as np
import pytest

from emo import Rng, Tensor


def test_tensor_requires_4d():
    with pytest.raises(ValueError, match="4-D"):
        Tensor(np.zeros((3, 3)))


def test_tensor_rejects_nonfinite():
    bad = np.zeros((1, 1, 2, 2))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Tensor(bad)
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Tensor(bad)


def test_tensor_immutable():
    t = Tensor.zeros((1, 2, 3, 3))
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        t.data = np.zeros((1, 1, 1, 1))


@pytest.mark.parametrize("precision", [None, "f32"])
def test_tensor_copies_an_array_it_would_alias_and_leaves_it_writeable(precision):
    a = np.zeros((1, 2, 3, 3), dtype=np.float32)
    t = Tensor(a, precision=precision)
    assert a.flags.writeable and t.data is not a and not t.data.flags.writeable
    a[0, 0, 0, 0] = 1.0
    assert t.data[0, 0, 0, 0] == 0.0


def test_tensor_precision_roundtrip():
    t32 = Tensor.full((1, 1, 2, 2), 0.1, precision="f32")
    t64 = Tensor.full((1, 1, 2, 2), 0.1, precision="f64")
    assert t32.precision == "f32" and t64.precision == "f64"
    assert t32.data.dtype == np.float32 and t64.data.dtype == np.float64


def test_rng_streams_are_deterministic_and_independent():
    a1 = Rng(7).normal("w", (4, 4))
    a2 = Rng(7).normal("w", (4, 4))
    b = Rng(7).normal("v", (4, 4))
    c = Rng(8).normal("w", (4, 4))
    assert a1.tobytes() == a2.tobytes()
    assert a1.tobytes() != b.tobytes()
    assert a1.tobytes() != c.tobytes()


def test_rng_stream_order_independent():
    # drawing other streams first must not disturb a named stream
    r = Rng(3)
    r.normal("first", (8,))
    late = r.normal("probe", (8,))
    fresh = Rng(3).normal("probe", (8,))
    assert late.tobytes() == fresh.tobytes()


def test_config_reader_refuses_a_field_annotation_it_has_no_json_type_for():
    import dataclasses

    from emo.tensor import config_from_json

    @dataclasses.dataclass(frozen=True)
    class Config:
        size: int
        shape: tuple[int, str]

    with pytest.raises(TypeError, match=r"Config\.shape"):
        config_from_json(Config, {"size": 1}, "test config")
