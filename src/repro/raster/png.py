"""Minimal PNG codec (numpy, stdlib ``zlib`` and ``struct``; no imaging library).

The paper's delivery operator "ships stream results back to clients using
the PNG image format" (Section 4). This module provides that capability
without external imaging libraries:

* encoder for grayscale 8-bit, grayscale 16-bit, and RGB 8-bit images,
  with the five standard scanline filters and an adaptive per-scanline
  filter chooser. It filters a block of scanlines per numpy call; the bytes
  equal the per-scanline chooser's (kept in ``tests/reference/png.py``);
* decoder for the same color types, accepting any mix of filters
  (non-interlaced only — satellite products are not Adam7-interlaced),
  byte by byte: it shares no filter code with the encoder.

Only the subset needed for image delivery is implemented; palettes, alpha,
ancillary chunks and interlacing are out of scope and rejected loudly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import CodecError

__all__ = ["encode_png", "decode_png", "encode_image", "FILTER_NAMES"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

FILTER_NAMES = {"none": 0, "sub": 1, "up": 2, "average": 3, "paeth": 4}

# Bytes of scanlines filtered per numpy call: enough to amortise numpy's
# per-call overhead, few enough that the five filter candidates stay in cache.
_BLOCK_BYTES = 8192


def _chunk(tag: bytes, data: bytes) -> tuple[bytes, ...]:
    """A chunk's four fields: length, tag, data and CRC."""
    crc = zlib.crc32(data, zlib.crc32(tag))
    return struct.pack(">I", len(data)), tag, data, struct.pack(">I", crc)


def _predict(ftype: int, left: np.ndarray, up: np.ndarray, upleft: np.ndarray) -> np.ndarray:
    """What filter type 1-4 predicts for each byte, as uint8."""
    if ftype == 1:
        return left
    if ftype == 2:
        return up
    if ftype == 3:  # floor((left + up) / 2) without leaving uint8
        return (left & up) + ((left ^ up) >> 1)
    # Paeth: of left, up, upleft (ties in that order), the one nearest
    # p = left + up - upleft; |p - left| = |up - upleft| and so on.
    a_c = left.astype(np.int16) - upleft
    b_c = up.astype(np.int16) - upleft
    pa, pb, pc = np.abs(b_c), np.abs(a_c), np.abs(a_c + b_c)
    # Bitwise selects: a bool mask viewed as uint8 and negated is 0x00/0xFF.
    take_up = np.negative((pb <= pc).view(np.uint8))
    take_left = np.negative(((pa <= pb) & (pa <= pc)).view(np.uint8))
    pred = upleft ^ ((up ^ upleft) & take_up)
    return pred ^ ((left ^ pred) & take_left)


def _filter_block(
    raw: np.ndarray, above: np.ndarray, bpp: int, strategy: str, out: np.ndarray
) -> None:
    """Filter scanlines ``raw``, lying under the row ``above``, into ``out``.

    Each row of ``out`` is the filter type byte, then ``raw`` minus the
    prediction, modulo 256.
    """
    prev = np.vstack((above, raw[:-1]))
    left = np.zeros_like(raw)
    left[:, bpp:] = raw[:, :-bpp]
    upleft = np.zeros_like(prev)
    upleft[:, bpp:] = prev[:, :-bpp]
    if strategy != "adaptive":
        ftype = out[:, 0] = FILTER_NAMES[strategy]
        np.subtract(raw, _predict(ftype, left, prev, upleft) if ftype else 0, out=out[:, 1:])
        return
    candidates = np.empty((5, *raw.shape), dtype=np.uint8)
    candidates[0] = raw
    for ftype in range(1, 5):
        np.subtract(raw, _predict(ftype, left, prev, upleft), out=candidates[ftype])
    # Minimum-sum-of-absolute-differences heuristic from the PNG spec, the
    # bytes read as int8; abs(-128) wraps to -128, which reads back as 128.
    costs = np.abs(candidates.view(np.int8)).view(np.uint8).sum(axis=2, dtype=np.uint64)
    best = costs.argmin(axis=0)  # the first minimum: ties go to the lower filter type
    out[:, 0] = best
    out[:, 1:] = candidates[best, np.arange(raw.shape[0])]


def _classify(values: np.ndarray) -> tuple[int, int, int]:
    """(color_type, bit_depth, channels) for an array, or raise."""
    if values.ndim == 2:
        if values.dtype == np.uint8:
            return 0, 8, 1
        if values.dtype == np.uint16:
            return 0, 16, 1
        raise CodecError(
            f"grayscale PNG needs uint8 or uint16 values, got {values.dtype}; "
            "scale float data first (see encode_image)"
        )
    if values.ndim == 3 and values.shape[2] == 3:
        if values.dtype == np.uint8:
            return 2, 8, 3
        raise CodecError(f"RGB PNG needs uint8 values, got {values.dtype}")
    raise CodecError(f"unsupported image shape {values.shape}; expected (h, w) or (h, w, 3)")


def encode_png(
    values: np.ndarray, filter_strategy: str = "adaptive", compress_level: int = 6
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
        values = values.astype(">u2")
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    raw = values.view(np.uint8).reshape(h, stride)

    lines = np.empty((h, stride + 1), dtype=np.uint8)
    step = max(1, _BLOCK_BYTES // stride)
    above = np.zeros(stride, dtype=np.uint8)
    for r0 in range(0, h, step):
        _filter_block(raw[r0 : r0 + step], above, bpp, filter_strategy, lines[r0 : r0 + step])
        above = raw[min(r0 + step, h) - 1]

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    idat = zlib.compress(lines, compress_level)
    return b"".join(
        (_SIGNATURE, *_chunk(b"IHDR", ihdr), *_chunk(b"IDAT", idat), *_chunk(b"IEND", b""))
    )


def encode_image(values: np.ndarray, auto_scale: bool = True) -> bytes:
    """Encode an arbitrary raster, auto-scaling floats to 8-bit grayscale.

    Integer arrays are encoded directly; float arrays (the usual case for
    derived products like NDVI) are min-max scaled to uint8 with NaN
    rendered as 0 when ``auto_scale`` is set.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise CodecError("cannot encode an empty image")
    if np.issubdtype(values.dtype, np.floating):
        if not auto_scale:
            raise CodecError("float images require auto_scale=True or manual scaling")
        ok = np.isfinite(values)
        lo = np.min(values, where=ok, initial=np.inf)
        if lo == np.inf:  # nothing finite: a black frame
            return encode_png(np.zeros(values.shape, dtype=np.uint8))
        lo, hi = float(lo), float(np.max(values, where=ok, initial=-np.inf))
        span = (hi - lo) if hi > lo else 1.0
        # clip((values - lo) / span * 255, 0, 255): the same steps in the
        # same dtype, written into one array instead of a copy per step
        scaled = np.subtract(values, lo)
        np.divide(scaled, span, out=scaled)
        np.multiply(scaled, 255.0, out=scaled)
        np.clip(scaled, 0.0, 255.0, out=scaled)
        scaled[~ok] = 0
        return encode_png(scaled.astype(np.uint8))
    if values.dtype in (np.dtype(np.uint8), np.dtype(np.uint16)):
        return encode_png(values)
    if np.issubdtype(values.dtype, np.integer):
        info_lo, info_hi = int(values.min()), int(values.max())
        if 0 <= info_lo and info_hi <= 255:
            return encode_png(values.astype(np.uint8))
        if 0 <= info_lo and info_hi <= 65535:
            return encode_png(values.astype(np.uint16))
        raise CodecError(f"integer values in [{info_lo}, {info_hi}] do not fit PNG grayscale")
    raise CodecError(f"cannot encode dtype {values.dtype}")


def _unfilter_scanline(ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    """Reverse one scanline filter in place-safe fashion."""
    out = line.astype(np.int32)
    if ftype == 2:  # up — fully vectorizable
        out = (out + prev) & 0xFF
    elif ftype in (1, 3, 4):
        prev32 = prev.astype(np.int32)
        res = np.zeros_like(out)
        for i in range(out.shape[0]):
            left = res[i - bpp] if i >= bpp else 0
            up = prev32[i]
            if ftype == 1:
                pred = left
            elif ftype == 3:
                pred = (left + up) // 2
            else:
                upleft = prev32[i - bpp] if i >= bpp else 0
                p = left + up - upleft
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
                pred = left if pa <= pb and pa <= pc else (up if pb <= pc else upleft)
            res[i] = (out[i] + pred) & 0xFF
        out = res
    elif ftype != 0:
        raise CodecError(f"unknown PNG filter type {ftype}")
    return out.astype(np.uint8)


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes into a numpy array (inverse of :func:`encode_png`)."""
    if not data.startswith(_SIGNATURE):
        raise CodecError("not a PNG: bad signature")
    pos = len(_SIGNATURE)
    ihdr: bytes | None = None
    idat = bytearray()
    seen_end = False
    while pos < len(data):
        if pos + 8 > len(data):
            raise CodecError("truncated PNG chunk header")
        length, tag = struct.unpack(">I4s", data[pos : pos + 8])
        if pos + 12 + length > len(data):
            raise CodecError(f"truncated PNG chunk {tag!r}")
        body = data[pos + 8 : pos + 8 + length]
        crc_expected = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])[0]
        if zlib.crc32(tag + body) & 0xFFFFFFFF != crc_expected:
            raise CodecError(f"CRC mismatch in chunk {tag!r}")
        if tag == b"IHDR":
            ihdr = body
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            seen_end = True
            break
        # Ancillary chunks are skipped.
        pos += 12 + length
    if ihdr is None or len(ihdr) != 13 or not seen_end:
        raise CodecError("PNG missing a 13-byte IHDR or IEND")
    w, h, bit_depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if comp != 0 or filt != 0:
        raise CodecError("unsupported PNG compression/filter method")
    if interlace != 0:
        raise CodecError("interlaced PNGs are not supported")
    if color_type == 0 and bit_depth in (8, 16):
        channels = 1
    elif color_type == 2 and bit_depth == 8:
        channels = 3
    else:
        raise CodecError(f"unsupported color type/bit depth ({color_type}, {bit_depth})")
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise CodecError(f"corrupt IDAT stream: {exc}") from exc
    if len(raw) != h * (stride + 1):
        raise CodecError(f"decompressed size {len(raw)} is not {h} scanlines of {stride + 1} B")
    flat = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    prev = np.zeros(stride, dtype=np.uint8)
    rows = np.empty((h, stride), dtype=np.uint8)
    for r in range(h):
        prev = _unfilter_scanline(int(flat[r, 0]), flat[r, 1:], prev, bpp)
        rows[r] = prev
    if bit_depth == 16:
        return rows.view(">u2").astype(np.uint16)
    return rows.reshape((h, w, 3) if channels == 3 else (h, w))
