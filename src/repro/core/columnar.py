"""Column buffers and bounded memos (the batch kernels' storage layer).

The operators in :mod:`repro.operators` are whole-chunk / whole-run batch
kernels. Instead of deriving one small Python object per row
(``subwindow`` → ``dataclasses.replace`` → ``__post_init__`` validation)
they keep *contiguous column buffers* — coordinates, values and frame
canvases each live in one flat allocation — so whole frames and row
bands are transformed by single batch operations.

:class:`ColumnBuffer` stores a column in an :class:`array.array` and
exposes it to kernels as a zero-copy numpy view (dtypes ``array`` cannot
hold fall back to an ndarray). Every kernel *computes* through numpy
views over those bytes, performing the same elementwise float
operations, in the same dtype and the same element order, as the
per-point reference in ``tests/reference/`` — delivered chunks are
bit-identical, not approximately equal (see ``docs/columnar.md`` and
``tests/test_columnar_differential``).

Geometry that is a pure function of a (frozen, content-compared) lattice
is kept in :class:`Memo` tables with constant bounds, so an operator's
memory does not grow with the number of distinct lattices it has seen.

This module is timing-free and mypy-strict; it never imports operators.
"""

from __future__ import annotations

from array import array
from typing import Callable, TypeVar

import numpy as np

from .lattice import GridLattice

__all__ = [
    "ColumnBuffer",
    "FrameAccumulator",
    "BandAccumulator",
    "RollingCanvas",
    "Memo",
    "ROW_MEMO_MAX",
    "FRAME_MEMO_MAX",
    "coordinate_columns",
]

# numpy dtype -> array.array typecode for the stdlib storage backend.
# Anything outside this table (e.g. float16) falls back to ndarray storage.
_TYPECODES: dict[str, str] = {
    "f4": "f",
    "f8": "d",
    "i1": "b",
    "u1": "B",
    "i2": "h",
    "u2": "H",
    "i4": "i",
    "u4": "I",
    "i8": "q",
    "u8": "Q",
}


class ColumnBuffer:
    """One contiguous, fixed-capacity column of scalar values.

    The storage is an :class:`array.array` exposed zero-copy through a
    ``memoryview``; kernels always read and write through :meth:`view`, a
    flat ndarray aliasing the buffer's bytes.
    """

    __slots__ = ("dtype", "capacity", "_store", "_view")

    def __init__(self, dtype: np.dtype | type, capacity: int) -> None:
        self.dtype = np.dtype(dtype)
        self.capacity = int(capacity)
        code = _TYPECODES.get(self.dtype.str.lstrip("<>|="))
        if code is None:
            self._store: array | np.ndarray = np.zeros(self.capacity, dtype=self.dtype)
            self._view = self._store
        else:
            self._store = array(code, bytes(self.capacity * self.dtype.itemsize))
            self._view = np.frombuffer(memoryview(self._store), dtype=self.dtype)

    def view(self) -> np.ndarray:
        """Flat zero-copy ndarray over the buffer's bytes."""
        return self._view

    def fill(self, value: float) -> None:
        self._view[:] = value

    @property
    def nbytes(self) -> int:
        return self.capacity * self.dtype.itemsize


class FrameAccumulator:
    """Growable float64 column accumulating one frame's values in order.

    ``append`` pastes a chunk's values at the running offset; assignment
    into the float64 view performs exactly the cast the per-point reference
    does with ``values.astype(np.float64).ravel()``, so :meth:`values`
    equals the reference's ``np.concatenate`` of per-chunk casts bit for bit.
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, capacity: int = 4096) -> None:
        self._buf = ColumnBuffer(np.float64, max(int(capacity), 16))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _ensure(self, extra: int) -> None:
        need = self._size + extra
        if need <= self._buf.capacity:
            return
        capacity = self._buf.capacity
        while capacity < need:
            capacity *= 2
        grown = ColumnBuffer(np.float64, capacity)
        grown.view()[: self._size] = self._buf.view()[: self._size]
        self._buf = grown

    def append(self, values: np.ndarray) -> tuple[int, int]:
        """Paste ``values`` (any shape) flat; return (offset, size)."""
        flat = values.reshape(-1)
        self._ensure(flat.size)
        offset = self._size
        self._buf.view()[offset : offset + flat.size] = flat
        self._size = offset + flat.size
        return offset, flat.size

    def values(self) -> np.ndarray:
        """Flat float64 view of everything appended so far."""
        return self._buf.view()[: self._size]

    def clear(self) -> None:
        self._size = 0


class BandAccumulator:
    """A k-row band of same-width rows in the source dtype (for Coarsen).

    Equivalent to the reference's ``np.vstack`` of k buffered row chunks,
    built incrementally with one paste per row instead of k chunk objects.
    """

    __slots__ = ("_buf", "row_shape", "k", "dtype", "rows")

    def __init__(self, dtype: np.dtype, k: int, row_shape: tuple[int, ...]) -> None:
        self.dtype = np.dtype(dtype)
        self.k = int(k)
        self.row_shape = tuple(int(d) for d in row_shape)
        n = self.k
        for dim in self.row_shape:
            n *= dim
        self._buf = ColumnBuffer(self.dtype, n)
        self.rows = 0

    def matches(self, dtype: np.dtype, row_shape: tuple[int, ...]) -> bool:
        return np.dtype(dtype) == self.dtype and tuple(row_shape) == self.row_shape

    def set_row(self, i: int, values: np.ndarray) -> None:
        grid = self.stack()
        grid[i] = values

    def stack(self) -> np.ndarray:
        """(k, *row_shape) view over the band buffer."""
        return self._buf.view().reshape((self.k,) + self.row_shape)

    def clear(self) -> None:
        self.rows = 0


class RollingCanvas:
    """A NaN-initialized float64 frame canvas (for resampling operators).

    Source rows are pasted once on arrival (at their column offset, so
    partial rows behave like the reference's per-row paste) and output rows
    slice a contiguous row-band window. Rows that never arrive stay NaN —
    the reference's "missing row" representation.
    """

    __slots__ = ("height", "width", "_buf")

    def __init__(self, height: int, width: int) -> None:
        self.height = int(height)
        self.width = int(width)
        self._buf = ColumnBuffer(np.float64, self.height * self.width)
        self._buf.fill(np.nan)

    def grid(self) -> np.ndarray:
        return self._buf.view().reshape(self.height, self.width)

    def reset(self) -> None:
        self._buf.fill(np.nan)

    def paste_row(self, row: int, col0: int, values: np.ndarray) -> None:
        """Paste one source row (cast to float64 by assignment)."""
        self.grid()[row, col0 : col0 + values.shape[-1]] = values

    def clear_row(self, row: int) -> None:
        self.grid()[row, :] = np.nan

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Contiguous view of source rows ``lo .. hi-1``."""
        return self.grid()[lo:hi]


# -- bounded geometry memos ---------------------------------------------------
#
# Lattices are frozen (hashable, content-compared), so anything derived
# from one is content-keyed: a memo hit returns exactly what recomputation
# would. Row-by-row streams repeat the same row lattices every frame,
# which is what makes the memos pay; a stream whose lattices keep moving
# (an airborne camera) would grow them one entry per frame forever, so
# every memo has a constant bound and is emptied when it reaches it.

# Memos keyed by chunk (row) lattices: a sector's rows all fit, many times.
ROW_MEMO_MAX = 4096
# Memos whose entries are frame-sized arrays: a few alternating sectors.
FRAME_MEMO_MAX = 4

_K = TypeVar("_K")
_V = TypeVar("_V")


class Memo(dict[_K, _V]):
    """Get-or-compute table with a constant bound: ``memo[key]``.

    A hit is a plain dict lookup; a miss computes, stores and returns the
    value, first clearing the whole table if it already holds ``bound``
    entries.
    """

    __slots__ = ("_compute", "_bound")

    def __init__(self, compute: Callable[[_K], _V], bound: int) -> None:
        super().__init__()
        self._compute = compute
        self._bound = bound

    def __missing__(self, key: _K) -> _V:
        if len(self) >= self._bound:
            self.clear()
        value = self[key] = self._compute(key)
        return value


def _coordinate_columns(lattice: GridLattice) -> tuple[np.ndarray, np.ndarray]:
    mx, my = lattice.meshgrid()
    xs = ColumnBuffer(np.float64, mx.size)
    ys = ColumnBuffer(np.float64, my.size)
    xs.view()[:] = mx.reshape(-1)
    ys.view()[:] = my.reshape(-1)
    return xs.view().reshape(mx.shape), ys.view().reshape(my.shape)


_COORD_MEMO: Memo[GridLattice, tuple[np.ndarray, np.ndarray]] = Memo(
    _coordinate_columns, ROW_MEMO_MAX
)


def coordinate_columns(lattice: GridLattice) -> tuple[np.ndarray, np.ndarray]:
    """Memoized (x, y) coordinate arrays of ``lattice.meshgrid()``.

    The arrays are materialized once into contiguous column buffers and
    shared by reference afterwards; callers must not mutate them.
    """
    return _COORD_MEMO[lattice]
