"""Per-call reference for :class:`repro.core.valueset.ValueSet`'s arithmetic.

Production classifies a value set once, at construction: ``is_integer``,
``bounds`` and whether it clips at all are stored on the instance, and
``coerce`` clips and rounds in place. These functions keep the formulas
it replaced, re-derived from the fields on every call, so the two can be
held bit-identical.

It is not in :data:`tests.reference.REFERENCES`: a value set is not an
operator. Call these functions directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.valueset import ValueSet
from repro.errors import ValueSetError

__all__ = ["is_integer", "bounds", "coerce"]


def is_integer(value_set: ValueSet) -> bool:
    return np.issubdtype(value_set.dtype, np.integer)


def bounds(value_set: ValueSet) -> tuple[float, float]:
    """Effective bounds, falling back to the dtype's representable range."""
    if is_integer(value_set):
        info = np.iinfo(value_set.dtype)
        lo = info.min if value_set.lo is None else value_set.lo
        hi = info.max if value_set.hi is None else value_set.hi
    else:
        lo = -np.inf if value_set.lo is None else value_set.lo
        hi = np.inf if value_set.hi is None else value_set.hi
    return float(lo), float(hi)


def coerce(value_set: ValueSet, values: np.ndarray) -> np.ndarray:
    """Clip into bounds and cast to the set's dtype (rounding integers)."""
    arr = np.asarray(values)
    if value_set.is_vector and (arr.ndim == 0 or arr.shape[-1] != value_set.channels):
        raise ValueSetError(
            f"value set {value_set.name!r} expects {value_set.channels}-channel values, "
            f"got array of shape {arr.shape}"
        )
    lo, hi = bounds(value_set)
    out = arr.astype(np.float64, copy=True)
    if np.isfinite(lo) or np.isfinite(hi):
        out = np.clip(out, lo, hi)
    if is_integer(value_set):
        out = np.rint(out)
    return out.astype(value_set.dtype)
