"""``ValueSet`` classified once against the per-call formulas it replaced.

A value set stores ``is_integer``, ``bounds`` and whether it clips at all
when it is built, and ``coerce`` clips and rounds in place;
:mod:`tests.reference.valueset` re-derives all of it on every call. For
every predefined set and for drawn dtypes, bounds and channel counts, the
two must agree bit for bit, on NaN, ±inf, -0.0 and values outside the
bounds or the dtype's range, and must raise the same error on a channel
mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.valueset import (
    FLOAT32,
    FLOAT64,
    GRAY8,
    GRAY10,
    GRAY16,
    NDVI_VALUES,
    REFLECTANCE,
    RGB8,
    ValueSet,
)
from repro.errors import ValueSetError

from tests.reference import valueset as reference

PREDEFINED = (GRAY8, GRAY10, GRAY16, RGB8, FLOAT32, FLOAT64, REFLECTANCE, NDVI_VALUES)
DTYPES = (np.uint8, np.uint16, np.int16, np.int32, np.int64, np.float16, np.float32, np.float64)
SPECIAL = (
    np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, -0.5, 1.5, 2.5, -1.0, 255.5, 256.0,
    1023.5, 65535.5, 65536.0, -32769.0, 2.0**31, 2.0**63, 1e300, -1e300,
)

bound = st.none() | st.integers(-70_000, 70_000) | st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def value_sets(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(PREDEFINED))
    lo, hi = draw(bound), draw(bound)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    dtype = draw(st.sampled_from(DTYPES))
    return ValueSet("drawn", dtype, channels=draw(st.integers(1, 3)), lo=lo, hi=hi)


@st.composite
def inputs(draw, value_set):
    """Arrays shaped for the set (or, sometimes, not), full of edge values."""
    n = draw(st.integers(0, 12))
    channels = value_set.channels
    if draw(st.integers(0, 5)) == 0:
        channels = draw(st.integers(1, 4))  # maybe a mismatch
    shape = (n,) if channels == 1 and draw(st.booleans()) else (n, channels)
    if draw(st.integers(0, 9)) == 0:
        shape = ()
    size = int(np.prod(shape, dtype=np.int64))
    element = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
    values = np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=np.float64)
    values = values.reshape(shape)
    kind = draw(st.sampled_from(("float64", "float32", "int64", "uint8")))
    if kind in ("int64", "uint8"):
        info = np.iinfo(kind)
        ints = draw(st.lists(st.integers(int(info.min), int(info.max)), min_size=size, max_size=size))
        return np.array(ints, dtype=kind).reshape(shape)
    with np.errstate(over="ignore"):
        return values.astype(kind)


def _outcome(coerce, value_set, values):
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = coerce(value_set, values)
    except ValueSetError as err:
        return ("error", str(err))
    return (out.tobytes(), str(out.dtype), out.shape)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_coerce_bit_identical_to_the_reference(data):
    value_set = data.draw(value_sets())
    values = data.draw(inputs(value_set))
    assert value_set.is_integer == reference.is_integer(value_set)
    assert np.array(value_set.bounds).tobytes() == np.array(reference.bounds(value_set)).tobytes()
    production = _outcome(ValueSet.coerce, value_set, values)
    assert production == _outcome(reference.coerce, value_set, values)


@pytest.mark.parametrize("value_set", PREDEFINED, ids=lambda vs: vs.name)
def test_every_predefined_set_on_the_edge_values(value_set):
    values = np.array(SPECIAL, dtype=np.float64)
    if value_set.is_vector:
        values = np.repeat(values[:, None], value_set.channels, axis=1)
    assert _outcome(ValueSet.coerce, value_set, values) == _outcome(
        reference.coerce, value_set, values
    )
    mismatch = np.zeros((2, value_set.channels + 1))
    expected = _outcome(reference.coerce, value_set, mismatch)
    assert _outcome(ValueSet.coerce, value_set, mismatch) == expected
    assert (expected[0] == "error") == value_set.is_vector
