"""Physical plans and the one executor that runs them.

Layering: the query layer parses *logical* trees (``repro.query.ast``);
:func:`compile_query` is the one step from such a tree to a plan. It
optimizes, then :func:`canonicalize` rewrites the result into canonical
form — the same AST, with restrictions folded, commutative operands
ordered, regions resolved and one composition policy recorded — and that
tree is the physical plan, with its routing rectangles read off it.
:class:`PlanDAG` turns plans into running machinery through the one
operator table (:func:`make_operator`): one operator DAG with
subplan-level sharing keyed by node fingerprint, which the DSMS feeds
chunk by chunk for every registered query, and which
:func:`plan_to_stream` wires privately for one query, returning the
GeoStream it delivers.
"""

from .canonical import COMMUTATIVE_GAMMAS, canonicalize, source_ids
from .compile import Compiled, compile_query, source_prune_boxes
from .lower import empty_stream, plan_to_stream
from .epoch import EpochSwapResult, EpochTransition, PlanEpoch
from .ops import VALUE_MAP_DEFAULTS, build_composition, build_value_map, make_operator
from .stages import PlanDAG, PlanStats, Stage

__all__ = [
    "source_ids",
    "COMMUTATIVE_GAMMAS",
    "canonicalize",
    "Compiled",
    "compile_query",
    "source_prune_boxes",
    "make_operator",
    "plan_to_stream",
    "empty_stream",
    "build_value_map",
    "build_composition",
    "VALUE_MAP_DEFAULTS",
    "PlanDAG",
    "PlanStats",
    "Stage",
    "EpochTransition",
    "EpochSwapResult",
    "PlanEpoch",
]
