"""Query layer: AST, textual parser, fluent builder, optimizer, planner, costs."""

from . import ast
from .adaptive import AdaptiveDecision, AdaptivePolicy
from .builder import Q, QueryBuilder
from .calibration import CalibrationProfile, CalibrationSample
from .cost import Estimate, NodeCost, StreamProfile, estimate_query
from .optimizer import OptimizeResult, optimize
from .parser import parse_query, resolve_crs
from .planner import plan_query

__all__ = [
    "ast",
    "Q",
    "QueryBuilder",
    "parse_query",
    "resolve_crs",
    "optimize",
    "OptimizeResult",
    "plan_query",
    "estimate_query",
    "StreamProfile",
    "Estimate",
    "NodeCost",
    "CalibrationProfile",
    "CalibrationSample",
    "AdaptivePolicy",
    "AdaptiveDecision",
]
