"""The query model's operator classes (Section 3).

Restrictions (3.1), transforms (3.2), compositions (3.3), plus the
spatio-temporal aggregate extension (Section 6 / ref [27]), delivery
(Section 4), and macro operators for common data products.
"""

from .aggregate import AGGREGATE_FUNCS, RegionAggregate, TemporalAggregate
from .base import BinaryOperator, Operator, OperatorStats
from .composition import GAMMA_OPERATORS, StreamComposition, normalized_difference
from .delivery import CollectingSink, DeliveredFrame, Delivery
from .macros import (
    evi2,
    ndvi,
    reflectance,
    spatio_temporal_aggregate,
)
from .reprojection import Reproject
from .restriction import SpatialRestriction, TemporalRestriction, ValueRestriction
from .shedding import AdaptiveLoadShedder, FrameSubsampler
from .spatial_transform import AffineTransform, AffineWarp, Coarsen, Magnify, Rotate
from .value_transform import (
    ColorToGray,
    CountsToReflectance,
    FrameStretch,
    PointwiseTransform,
    Rescale,
)

__all__ = [
    "Operator",
    "BinaryOperator",
    "OperatorStats",
    "SpatialRestriction",
    "TemporalRestriction",
    "ValueRestriction",
    "PointwiseTransform",
    "Rescale",
    "CountsToReflectance",
    "ColorToGray",
    "FrameStretch",
    "Magnify",
    "Coarsen",
    "AffineTransform",
    "AffineWarp",
    "Rotate",
    "Reproject",
    "StreamComposition",
    "GAMMA_OPERATORS",
    "normalized_difference",
    "TemporalAggregate",
    "RegionAggregate",
    "AGGREGATE_FUNCS",
    "Delivery",
    "DeliveredFrame",
    "CollectingSink",
    "ndvi",
    "evi2",
    "reflectance",
    "spatio_temporal_aggregate",
    "FrameSubsampler",
    "AdaptiveLoadShedder",
]
