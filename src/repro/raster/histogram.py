"""Streaming statistics for value transforms.

Section 3.2: "in order to perform a respective value transform on a point,
information about previous point values needs to be maintained, in
particular the minimum and maximum point values seen so far". These
trackers are that state; stretch operators reset them at frame boundaries
because the paper applies stretches "on individual frames of the stream G,
and not the complete stream".
"""

from __future__ import annotations

import numpy as np

from ..errors import OperatorError

__all__ = ["StreamingMinMax", "StreamingHistogram"]


class StreamingMinMax:
    """Running minimum/maximum over arrays, ignoring NaN."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._min = np.inf
        self._max = -np.inf
        self._count = 0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return
        self._min = min(self._min, float(np.min(finite)))
        self._max = max(self._max, float(np.max(finite)))
        self._count += int(finite.size)

    @property
    def count(self) -> int:
        return self._count

    @property
    def min(self) -> float:
        if self._count == 0:
            raise OperatorError("no finite values observed yet")
        return self._min

    @property
    def max(self) -> float:
        if self._count == 0:
            raise OperatorError("no finite values observed yet")
        return self._max

    @property
    def range(self) -> float:
        return self.max - self.min


class StreamingHistogram:
    """Fixed-bin histogram accumulated incrementally over a value range.

    The bin range must be declared up front (streams cannot be re-read);
    for satellite imagery the instrument's digitization range is known
    (e.g. 10-bit GVAR counts), so this matches practice.
    """

    def __init__(self, lo: float, hi: float, bins: int = 256) -> None:
        if not np.isfinite(lo) or not np.isfinite(hi) or lo >= hi:
            raise OperatorError(f"invalid histogram range [{lo}, {hi}]")
        if bins < 2:
            raise OperatorError(f"need at least 2 bins, got {bins}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = np.zeros(bins, dtype=np.int64)

    def reset(self) -> None:
        self.counts[:] = 0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return
        clipped = np.clip(finite, self.lo, self.hi)
        idx = np.minimum(
            ((clipped - self.lo) / (self.hi - self.lo) * self.bins).astype(np.int64),
            self.bins - 1,
        )
        self.counts += np.bincount(idx, minlength=self.bins)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over bins, normalized to [0, 1]."""
        total = self.total
        if total == 0:
            raise OperatorError("histogram is empty")
        return np.cumsum(self.counts) / total

    def bin_of(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each value (clipped into range)."""
        values = np.asarray(values, dtype=float)
        clipped = np.clip(values, self.lo, self.hi)
        return np.minimum(
            ((clipped - self.lo) / (self.hi - self.lo) * self.bins).astype(np.int64),
            self.bins - 1,
        )
