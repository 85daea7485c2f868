"""Raster utilities: interpolation, stretches, PNG codec."""

from .interpolate import (
    KERNEL_FOOTPRINT,
    block_reduce,
    sample,
    sample_bicubic,
    sample_bilinear,
    sample_nearest,
)
from .png import decode_png, encode_image, encode_png
from .stretch import (
    erf,
    erfinv,
    gaussian_stretch,
    histogram_equalize,
    linear_stretch,
)

__all__ = [
    "KERNEL_FOOTPRINT",
    "block_reduce",
    "sample",
    "sample_nearest",
    "sample_bilinear",
    "sample_bicubic",
    "decode_png",
    "encode_png",
    "encode_image",
    "linear_stretch",
    "histogram_equalize",
    "gaussian_stretch",
    "erf",
    "erfinv",
]
