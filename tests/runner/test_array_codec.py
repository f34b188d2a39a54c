"""The array codec: compressed raw bytes that round-trip bit for bit.

Arrays cross the cache and run-artifact boundary as
``{"dtype", "shape", "zlib"}``.  The round trip goes through a real JSON
string and is compared on raw bytes, dtype and shape, so NaN payloads,
signed zeros and byte order all have to survive.
"""

from __future__ import annotations

import base64
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.serialize import array_from_jsonable, array_to_jsonable
from tests.runner.dense_codec import dense_array_to_jsonable

DTYPES = ["<f8", ">f8", "<f4", "i1", "<i8", ">i8", "?"]

#: How an array reaches the encoder: as built, Fortran-ordered, a strided
#: slice, or transposed.
LAYOUTS = {
    "c": lambda a: a,
    "fortran": np.asfortranarray,
    "sliced": lambda a: a[::2] if a.ndim else a,
    "transposed": lambda a: a.T,
}


def round_trip(arr):
    return array_from_jsonable(json.loads(json.dumps(array_to_jsonable(arr))))


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def any_array(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    if dtype.kind == "f":
        elements = st.floats(width=8 * dtype.itemsize, allow_nan=True, allow_infinity=True)
    else:
        elements = None
    arr = draw(arrays(dtype, shape, elements=elements))
    return LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](arr)


@settings(max_examples=300, deadline=None)
@given(arr=any_array())
def test_round_trip_is_bit_exact(arr):
    assert_bit_identical(round_trip(arr), arr)


@pytest.mark.parametrize("dtype", ["<f8", ">f8", "<f4"])
def test_special_floats_keep_their_bits(dtype):
    arr = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324], dtype=dtype)
    got = round_trip(arr)
    assert_bit_identical(got, arr)
    assert np.signbit(got[4]) and not np.signbit(got[5])


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 4, 2)])
def test_empty_and_zero_dim(shape):
    arr = np.full(shape, 7.5)
    assert_bit_identical(round_trip(arr), arr)


def test_decoded_array_is_writable():
    got = round_trip(np.arange(6, dtype=np.int64).reshape(2, 3))
    assert got.flags.writeable
    got[0, 0] = 42
    assert got[0, 0] == 42


def test_none_passes_through():
    assert array_to_jsonable(None) is None
    assert array_from_jsonable(None) is None


def test_object_arrays_are_refused():
    with pytest.raises(TypeError):
        array_to_jsonable(np.array([1, "a"], dtype=object))


def test_placement_store_shrinks_tenfold():
    """A rounded placement (sparse 0/1 floats) against its dense form."""
    rng = np.random.default_rng(3)
    store = (rng.random((19, 8, 80)) < 0.135).astype(np.float64)
    new, old = json.dumps(array_to_jsonable(store)), json.dumps(dense_array_to_jsonable(store))
    assert len(new) * 10 <= len(old)


def _blob(payload, raw):
    return {**payload, "zlib": base64.b64encode(raw).decode("ascii")}


@pytest.mark.parametrize(
    "garble",
    [
        pytest.param(lambda p: {**p, "zlib": p["zlib"][:-4] + "!!!!"}, id="bad-base64"),
        pytest.param(lambda p: _blob(p, b"not zlib at all"), id="zlib-error"),
        pytest.param(
            lambda p: _blob(p, zlib.compress(zlib.decompress(base64.b64decode(p["zlib"]))[:-8])),
            id="short-by-one-entry",
        ),
        pytest.param(
            lambda p: _blob(p, zlib.compress(zlib.decompress(base64.b64decode(p["zlib"]))[:-3])),
            id="ragged-byte-count",
        ),
        pytest.param(
            lambda p: _blob(p, zlib.decompress(base64.b64decode(p["zlib"]))), id="uncompressed"
        ),
    ],
)
def test_garbled_blob_raises_value_error(garble):
    payload = array_to_jsonable(np.arange(12, dtype=np.float64).reshape(3, 4))
    with pytest.raises(ValueError):
        array_from_jsonable(garble(payload))


def test_dense_form_is_not_read():
    with pytest.raises(KeyError):
        array_from_jsonable(dense_array_to_jsonable(np.ones(3)))
