"""Value sets (Def. 2): homogeneous algebras of point values.

A value set pairs a numpy dtype with optional bounds and a channel count,
and knows how to validate, coerce, and combine values. Typical instances
mirror the paper's examples: Z for grey-scale images, Z^3 for color images,
Z^n for multi-spectral data, plus real-valued sets for derived products
like NDVI (whose values live in [-1, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ValueSetError

__all__ = [
    "ValueSet",
    "GRAY8",
    "GRAY10",
    "GRAY16",
    "RGB8",
    "FLOAT32",
    "FLOAT64",
    "REFLECTANCE",
    "NDVI_VALUES",
    "promote",
]


@dataclass(frozen=True)
class ValueSet:
    """A set of point values with an algebra over them.

    Parameters
    ----------
    name:
        Identifier used in metadata and error messages.
    dtype:
        Numpy dtype values are stored in.
    channels:
        1 for scalar values, n for vector values (e.g. 3 for RGB).
    lo, hi:
        Optional inclusive bounds; ``coerce`` clips into them.
    """

    name: str
    dtype: np.dtype
    channels: int = 1
    lo: Optional[float] = None
    hi: Optional[float] = None
    # Classification, fixed at construction so ``coerce`` only computes.
    # ``bounds`` are the effective bounds, falling back to the dtype's
    # representable range; ``_clips`` says whether either one is finite.
    is_integer: bool = field(init=False, repr=False, compare=False)
    bounds: tuple[float, float] = field(init=False, repr=False, compare=False)
    _clips: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dtype = np.dtype(self.dtype)
        object.__setattr__(self, "dtype", dtype)
        if self.channels < 1:
            raise ValueSetError(f"value set {self.name!r}: channels must be >= 1")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueSetError(f"value set {self.name!r}: lo > hi")
        is_integer = bool(np.issubdtype(dtype, np.integer))
        if is_integer:
            info = np.iinfo(dtype)
            lo = info.min if self.lo is None else self.lo
            hi = info.max if self.hi is None else self.hi
        else:
            lo = -np.inf if self.lo is None else self.lo
            hi = np.inf if self.hi is None else self.hi
        bounds = (float(lo), float(hi))
        object.__setattr__(self, "is_integer", is_integer)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "_clips", bool(np.isfinite(bounds[0]) or np.isfinite(bounds[1])))

    # -- classification ---------------------------------------------------

    @property
    def is_vector(self) -> bool:
        return self.channels > 1

    # -- membership & coercion ---------------------------------------------

    def contains(self, values: np.ndarray) -> bool:
        """True when the array's dtype, shape, and range fit this set."""
        values = np.asarray(values)
        if self.is_vector and (values.ndim == 0 or values.shape[-1] != self.channels):
            return False
        if values.dtype != self.dtype:
            return False
        lo, hi = self.bounds
        finite = values[np.isfinite(values)] if not self.is_integer else values
        if finite.size == 0:
            return True
        return bool(np.all(finite >= lo) and np.all(finite <= hi))

    def coerce(self, values: np.ndarray) -> np.ndarray:
        """Clip into bounds and cast to the set's dtype (rounding integers)."""
        arr = np.asarray(values)
        if self.is_vector and (arr.ndim == 0 or arr.shape[-1] != self.channels):
            raise ValueSetError(
                f"value set {self.name!r} expects {self.channels}-channel values, "
                f"got array of shape {arr.shape}"
            )
        out = arr.astype(np.float64, copy=True)
        if self._clips:
            np.clip(out, *self.bounds, out=out)
        if self.is_integer:
            np.rint(out, out=out)
        return out.astype(self.dtype)

    def validate(self, values: np.ndarray, context: str = "values") -> np.ndarray:
        """Assert membership, returning the array unchanged."""
        values = np.asarray(values)
        if not self.contains(values):
            raise ValueSetError(
                f"{context}: array (dtype={values.dtype}, shape={values.shape}) "
                f"is not a member of value set {self.name!r}"
            )
        return values

    def nbytes_per_point(self) -> int:
        return int(self.dtype.itemsize) * self.channels


GRAY8 = ValueSet("gray8", np.uint8, lo=0, hi=255)
GRAY10 = ValueSet("gray10", np.uint16, lo=0, hi=1023)  # GVAR imagery is 10-bit
GRAY16 = ValueSet("gray16", np.uint16, lo=0, hi=65535)
RGB8 = ValueSet("rgb8", np.uint8, channels=3, lo=0, hi=255)
FLOAT32 = ValueSet("float32", np.float32)
FLOAT64 = ValueSet("float64", np.float64)
REFLECTANCE = ValueSet("reflectance", np.float32, lo=0.0, hi=1.0)
NDVI_VALUES = ValueSet("ndvi", np.float32, lo=-1.0, hi=1.0)


def promote(a: ValueSet, b: ValueSet) -> ValueSet:
    """Value set of the result of arithmetic between members of ``a`` and ``b``.

    Arithmetic can leave either operand's bounds (e.g. difference of two
    reflectances is negative), so the promoted set is unbounded in the
    common floating dtype — callers narrow it again when they know more
    (the NDVI macro does, for instance).
    """
    if a.channels != b.channels:
        raise ValueSetError(
            f"cannot combine value sets {a.name!r} and {b.name!r}: "
            f"channel counts differ ({a.channels} vs {b.channels})"
        )
    dtype = np.promote_types(a.dtype, b.dtype)
    if np.issubdtype(dtype, np.integer):
        dtype = np.dtype(np.float64) if dtype.itemsize > 4 else np.dtype(np.float32)
    name = a.name if a == b else f"{a.name}|{b.name}"
    return ValueSet(name, dtype, channels=a.channels)
