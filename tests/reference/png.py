"""Per-scanline reference for :func:`repro.raster.encode_png` and ``encode_image``.

Production filters a block of scanlines per numpy call and scales float
frames in place; this reference keeps the encoder it replaced — one
``_filter_scanline`` call per row, each building the five filter
candidates for that row and costing them one by one, and a float scaling
that copies the frame at every step — so the two can be held
byte-identical on every PNG.

It is not in :data:`tests.reference.REFERENCES`: that table swaps
operator kernels inside :func:`tests.reference.reference_kernels`, and the
codec is not an operator. Call :func:`encode_png` / :func:`encode_image`
from this module directly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import CodecError
from repro.raster.png import _SIGNATURE, FILTER_NAMES, _classify

__all__ = ["encode_png", "encode_image"]


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def _paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized Paeth predictor over int16 arrays."""
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def _filter_scanline(
    raw: np.ndarray, prev: np.ndarray, bpp: int, strategy: str
) -> tuple[int, np.ndarray]:
    """Filter one scanline, returning (filter_type, filtered_bytes)."""
    left = np.zeros_like(raw)
    left[bpp:] = raw[:-bpp]
    up = prev
    upleft = np.zeros_like(prev)
    upleft[bpp:] = prev[:-bpp]

    candidates: dict[str, np.ndarray] = {"none": raw}
    candidates["sub"] = (raw.astype(np.int16) - left).astype(np.uint8)
    candidates["up"] = (raw.astype(np.int16) - up).astype(np.uint8)
    candidates["average"] = (
        raw.astype(np.int16) - ((left.astype(np.int16) + up.astype(np.int16)) // 2)
    ).astype(np.uint8)
    candidates["paeth"] = (
        raw.astype(np.int16) - _paeth_predictor(left, up, upleft)
    ).astype(np.uint8)

    if strategy != "adaptive":
        return FILTER_NAMES[strategy], candidates[strategy]
    # Minimum-sum-of-absolute-differences heuristic from the PNG spec.
    best_name, best_cost = "none", None
    for name, data in candidates.items():
        signed = data.astype(np.int16)
        cost = int(np.abs(np.where(signed > 127, signed - 256, signed)).sum())
        if best_cost is None or cost < best_cost:
            best_name, best_cost = name, cost
    return FILTER_NAMES[best_name], candidates[best_name]


def encode_png(
    values: np.ndarray,
    filter_strategy: str = "adaptive",
    compress_level: int = 6,
) -> bytes:
    """Encode a uint8/uint16 grayscale or uint8 RGB array as PNG bytes."""
    values = np.ascontiguousarray(values)
    if filter_strategy != "adaptive" and filter_strategy not in FILTER_NAMES:
        raise CodecError(
            f"unknown filter strategy {filter_strategy!r}; expected 'adaptive' "
            f"or one of {sorted(FILTER_NAMES)}"
        )
    color_type, bit_depth, channels = _classify(values)
    h, w = values.shape[:2]
    if h < 1 or w < 1:
        raise CodecError("cannot encode an empty image")

    if bit_depth == 16:
        payload = values.astype(">u2").tobytes()
    else:
        payload = values.tobytes()
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(h, stride)

    prev = np.zeros(stride, dtype=np.uint8)
    lines = bytearray()
    for r in range(h):
        ftype, filtered = _filter_scanline(raw[r], prev, bpp, filter_strategy)
        lines.append(ftype)
        lines.extend(filtered.tobytes())
        prev = raw[r]

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    idat = zlib.compress(bytes(lines), compress_level)
    return _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def encode_image(values: np.ndarray, auto_scale: bool = True) -> bytes:
    """Encode an arbitrary raster, auto-scaling floats to 8-bit grayscale.

    Integer arrays are encoded directly; float arrays (the usual case for
    derived products like NDVI) are min-max scaled to uint8 with NaN
    rendered as 0 when ``auto_scale`` is set.
    """
    values = np.asarray(values)
    if np.issubdtype(values.dtype, np.floating):
        if not auto_scale:
            raise CodecError("float images require auto_scale=True or manual scaling")
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            scaled = np.zeros(values.shape, dtype=np.uint8)
        else:
            lo, hi = float(finite.min()), float(finite.max())
            span = (hi - lo) if hi > lo else 1.0
            scaled = np.clip((values - lo) / span * 255.0, 0.0, 255.0)
            scaled = np.where(np.isfinite(values), scaled, 0.0).astype(np.uint8)
        return encode_png(scaled)
    if values.dtype in (np.dtype(np.uint8), np.dtype(np.uint16)):
        return encode_png(values)
    if np.issubdtype(values.dtype, np.integer):
        info_lo, info_hi = int(values.min()), int(values.max())
        if 0 <= info_lo and info_hi <= 255:
            return encode_png(values.astype(np.uint8))
        if 0 <= info_lo and info_hi <= 65535:
            return encode_png(values.astype(np.uint16))
        raise CodecError(
            f"integer image values in [{info_lo}, {info_hi}] do not fit PNG "
            "grayscale; rescale first"
        )
    raise CodecError(f"cannot encode dtype {values.dtype}")
