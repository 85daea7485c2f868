"""Macro operators for common data products (Section 4).

"Other operators that are currently being implemented ... include
specialized macro operators that compute specific data products, such as
NDVI. Such data products can be directly selected in the user interface,
without the need to compose otherwise complex queries."

Each macro is a function from GeoStreams to a GeoStream, expanded in
terms of the primitive algebra (compositions and value transforms), so
macros stay inside the closed query model.
"""

from __future__ import annotations

import numpy as np

from ..core.stream import GeoStream
from ..core.valueset import NDVI_VALUES, ValueSet
from .composition import StreamComposition, normalized_difference
from .value_transform import CountsToReflectance


def _compose_streams(left: GeoStream, right: GeoStream, op: StreamComposition) -> GeoStream:
    # Imported lazily: repro.engine.pipeline imports the operator base
    # classes, so a module-level import here would be circular.
    from ..engine.pipeline import compose_streams

    return compose_streams(left, right, op)

__all__ = [
    "reflectance",
    "ndvi",
    "evi2",
    "spatio_temporal_aggregate",
]


def reflectance(stream: GeoStream, bits: int = 10) -> GeoStream:
    """Radiometric calibration: instrument counts -> reflectance [0, 1]."""
    return stream.pipe(CountsToReflectance(bits=bits))


def ndvi(
    nir: GeoStream,
    vis: GeoStream,
    timestamp_policy: str | None = None,
) -> GeoStream:
    """Normalized difference vegetation index: (NIR - VIS) / (NIR + VIS).

    The paper's running example (Section 3.4) expressed in the algebra as
    the stream composition ``(G1 - G2) / (G2 + G1)`` with G1 = NIR,
    G2 = VIS. Inputs should already be calibrated (see :func:`reflectance`).
    """
    policy = timestamp_policy or nir.metadata.timestamp_policy
    op = StreamComposition(
        normalized_difference,
        timestamp_policy=policy,
        band="ndvi",
        output_value_set=NDVI_VALUES,
    )
    return _compose_streams(nir, vis, op)


def evi2(
    nir: GeoStream,
    vis: GeoStream,
    timestamp_policy: str | None = None,
) -> GeoStream:
    """Two-band enhanced vegetation index: 2.5 (N - R) / (N + 2.4 R + 1)."""

    def kernel(n: np.ndarray, r: np.ndarray) -> np.ndarray:
        denom = n + 2.4 * r + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.5 * (n - r) / denom
        return np.where(np.isfinite(out), out, np.nan)

    policy = timestamp_policy or nir.metadata.timestamp_policy
    op = StreamComposition(
        kernel,
        timestamp_policy=policy,
        band="evi2",
        output_value_set=ValueSet("evi2", np.float32, lo=-2.5, hi=2.5),
    )
    return _compose_streams(nir, vis, op)


def spatio_temporal_aggregate(
    stream: GeoStream,
    spatial_k: int,
    window: int,
    func: str = "mean",
    mode: str = "sliding",
) -> GeoStream:
    """The spatio-temporal aggregate of Zhang, Gertz & Aksoy (ref [27]).

    Aggregates over a spatio-temporal window: each output pixel covers a
    ``spatial_k`` x ``spatial_k`` block of input pixels aggregated over the
    last ``window`` frames — e.g. "mean NDVI per 4 km cell over the last
    three scans". Expressed inside the closed algebra as a resolution
    decrease followed by a per-pixel temporal window aggregate.
    """
    from .aggregate import TemporalAggregate
    from .spatial_transform import Coarsen

    return stream.pipe(Coarsen(spatial_k), TemporalAggregate(window, func, mode))
