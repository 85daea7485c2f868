"""The one operator table: canonical plan node → fresh physical operator.

The plan DAG (:class:`~repro.plan.stages.PlanDAG`, which the DSMS and
:func:`~repro.plan.lower.plan_to_stream` both wire) builds every operator
through :func:`make_operator`, so no node kind is constructed in two
places.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core.valueset import NDVI_VALUES, ValueSet
from ..errors import PlanError
from ..operators.aggregate import RegionAggregate, TemporalAggregate
from ..operators.base import BinaryOperator, Operator
from ..operators.composition import StreamComposition, normalized_difference
from ..operators.reprojection import Reproject
from ..operators.restriction import (
    SpatialRestriction,
    TemporalRestriction,
    ValueRestriction,
)
from ..operators.spatial_transform import Coarsen, Magnify, Rotate
from ..operators.value_transform import (
    CountsToReflectance,
    FrameStretch,
    PointwiseTransform,
    Rescale,
)
from ..query import ast as q

__all__ = ["make_operator", "build_value_map", "build_composition", "VALUE_MAP_DEFAULTS"]

# Canonical parameter lists (name, default) per value-map kind. The
# canonicalizer materializes every parameter in this order so that
# e.g. reflectance() and reflectance(bits=10) hash identically.
VALUE_MAP_DEFAULTS: dict[str, tuple[tuple[str, float], ...]] = {
    "rescale": (("gain", 1.0), ("offset", 0.0)),
    "reflectance": (("bits", 10.0),),
    "gamma": (("exponent", 1.0),),
    "negate": (),
    "absolute": (),
}


def build_value_map(
    kind: str,
    params: Mapping[str, float] | Iterable[tuple[str, float]] = (),
) -> Operator:
    """Instantiate the operator for a named pointwise value transform."""
    table = dict(params)
    if kind == "rescale":
        return Rescale(table.get("gain", 1.0), table.get("offset", 0.0))
    if kind == "reflectance":
        return CountsToReflectance(bits=int(table.get("bits", 10.0)))
    if kind == "gamma":
        exponent = table.get("exponent", 1.0)
        return PointwiseTransform(
            lambda v: np.power(np.clip(v.astype(np.float64), 0.0, None), exponent),
            label=f"gamma({exponent:g})",
        )
    if kind == "negate":
        return PointwiseTransform(lambda v: -v.astype(np.float64), label="negate")
    if kind == "absolute":
        return PointwiseTransform(lambda v: np.abs(v.astype(np.float64)), label="abs")
    raise PlanError(f"unknown value transform kind {kind!r}")


def build_composition(gamma: str, timestamp_policy: str = "sector") -> StreamComposition:
    """Instantiate the binary composition operator for one γ kernel.

    The macro kernels ``ndvi``/``evi2`` expand to their band-math
    definitions with dedicated output value sets.
    """
    if gamma == "ndvi":
        return StreamComposition(
            normalized_difference,
            timestamp_policy=timestamp_policy,
            band="ndvi",
            output_value_set=NDVI_VALUES,
        )
    if gamma == "evi2":

        def kernel(n: np.ndarray, r: np.ndarray) -> np.ndarray:
            denom = n + 2.4 * r + 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                out = 2.5 * (n - r) / denom
            return np.where(np.isfinite(out), out, np.nan)

        return StreamComposition(
            kernel,
            timestamp_policy=timestamp_policy,
            band="evi2",
            output_value_set=ValueSet("evi2", np.float32, lo=-2.5, hi=2.5),
        )
    return StreamComposition(gamma, timestamp_policy=timestamp_policy)


def _composition(n: q.Compose) -> StreamComposition:
    if n.timestamp_policy is None:
        raise PlanError(
            f"{n.describe()} has an unresolved timestamp policy; lower the "
            "tree with compile_query() before building operators"
        )
    return build_composition(n.gamma, n.timestamp_policy)


_OPERATORS: dict[type[q.QueryNode], Callable[[Any], Operator | BinaryOperator]] = {
    q.SpatialRestrict: lambda n: SpatialRestriction(n.region),
    q.TemporalRestrict: lambda n: TemporalRestriction(n.timeset, on_sector=n.on_sector),
    q.ValueRestrict: lambda n: ValueRestriction(lo=n.lo, hi=n.hi),
    q.ValueMap: lambda n: build_value_map(n.kind, n.params),
    q.Stretch: lambda n: FrameStretch(n.kind),
    q.Magnify: lambda n: Magnify(n.k),
    q.Coarsen: lambda n: Coarsen(n.k),
    q.Rotate: lambda n: Rotate(n.angle_deg),
    q.Reproject: lambda n: Reproject(n.dst_crs, method=n.method),
    q.Compose: _composition,
    q.TemporalAgg: lambda n: TemporalAggregate(n.window, n.func, n.mode),
    q.RegionAgg: lambda n: RegionAggregate(dict(n.regions), n.func),
}


def make_operator(node: q.QueryNode) -> Operator | BinaryOperator:
    """Fresh physical operator for one canonical plan node (leaves have none)."""
    build = _OPERATORS.get(type(node))
    if build is None:
        raise PlanError(f"{type(node).__name__} has no physical operator")
    return build(node)
