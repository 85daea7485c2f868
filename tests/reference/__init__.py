"""Per-point reference implementations of the batch kernels.

``src/`` holds one implementation of every operator: the batch kernel.
The per-point code the kernels are held bit-identical to lives here, one
module per operator module. Each reference class subclasses its
production class and overrides only what differs: the processing hooks
and their helpers, ``_reset_state`` where the per-stream state differs,
and ``process_many`` (back to the base-class per-chunk loop).

:func:`reference_kernels` runs whole pipelines on the reference::

    with reference_kernels():
        expected = source.pipe(Coarsen(3)).collect_chunks()
    assert source.pipe(Coarsen(3)).collect_chunks() == expected

Inside the block the reference attributes are installed on the
*production* classes, so everything that constructs operators — ``pipe``,
``plan_query``, ``PlanDAG``, ``DSMSServer`` — runs per-point code,
subclasses such as ``Rescale`` and ``Rotate`` included. Hooks are looked
up on the class at call time, but an operator's per-stream state is
created by ``_reset_state`` from its constructor: **build operators
inside the block and run them inside the block.**

:mod:`tests.reference.ingest` holds the row-at-a-time reference of the
GOES imager's downlink. It is not in :data:`REFERENCES`: an instrument is
not an operator kernel, so tests construct it directly instead of
installing it. :mod:`tests.reference.png` holds the per-scanline PNG
encoder and the copying float scaler of ``encode_image``; it is not in
:data:`REFERENCES` either, for the same reason: tests call its functions
directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .aggregate import RegionAggregateReference
from .composition import StreamCompositionReference
from .reprojection import ReprojectReference
from .restriction import SpatialRestrictionReference, ValueRestrictionReference
from .spatial_transform import CoarsenReference, FrameWarpReference, MagnifyReference
from .value_transform import FrameStretchReference, PointwiseTransformReference

__all__ = ["REFERENCES", "reference_patches", "reference_kernels"]

REFERENCES: tuple[type, ...] = (
    PointwiseTransformReference,
    FrameStretchReference,
    MagnifyReference,
    CoarsenReference,
    FrameWarpReference,
    ReprojectReference,
    SpatialRestrictionReference,
    ValueRestrictionReference,
    StreamCompositionReference,
    RegionAggregateReference,
)

_MISSING = object()


def reference_patches() -> list[tuple[type, str, object]]:
    """(production class, attribute name, reference attribute) triples."""
    return [
        (reference.__bases__[0], name, attr)
        for reference in REFERENCES
        for name, attr in vars(reference).items()
        if not (name.startswith("__") and name.endswith("__"))
    ]


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Install the reference on the production classes for the block."""
    saved: list[tuple[type, str, object]] = []
    try:
        for production, name, attr in reference_patches():
            saved.append((production, name, production.__dict__.get(name, _MISSING)))
            setattr(production, name, attr)
        yield
    finally:
        for production, name, previous in reversed(saved):
            if previous is _MISSING:
                delattr(production, name)
            else:
                setattr(production, name, previous)
