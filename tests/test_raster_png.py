"""PNG codec: round-trips across formats and filters, error handling."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from repro.errors import CodecError
from repro.raster import decode_png, encode_image, encode_png
from repro.raster.png import FILTER_NAMES


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", ["none", "sub", "up", "average", "paeth", "adaptive"])
    def test_gray8_all_filters(self, strategy):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (23, 31), dtype=np.uint8)
        assert (decode_png(encode_png(img, filter_strategy=strategy)) == img).all()

    def test_gray16(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 65536, (9, 17), dtype=np.uint16)
        out = decode_png(encode_png(img))
        assert out.dtype == np.uint16
        assert (out == img).all()

    def test_rgb8(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (11, 7, 3), dtype=np.uint8)
        out = decode_png(encode_png(img))
        assert out.shape == (11, 7, 3)
        assert (out == img).all()

    def test_single_pixel(self):
        img = np.array([[42]], dtype=np.uint8)
        assert decode_png(encode_png(img))[0, 0] == 42

    def test_gradient_compresses_well(self):
        """Smooth imagery (the satellite case) should compress with filters."""
        row = np.arange(256, dtype=np.uint8)
        img = np.tile(row, (64, 1))
        adaptive = encode_png(img, filter_strategy="adaptive")
        unfiltered = encode_png(img, filter_strategy="none")
        assert len(adaptive) < len(unfiltered)

    @given(
        arr=hnp.arrays(
            dtype=np.uint8,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_gray8(self, arr):
        assert (decode_png(encode_png(arr)) == arr).all()

    @given(
        arr=hnp.arrays(
            dtype=np.uint16,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_gray16(self, arr):
        assert (decode_png(encode_png(arr)) == arr).all()


class TestEncodeImage:
    def test_float_auto_scales(self):
        img = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        data = encode_image(img)
        out = decode_png(data)
        assert out.dtype == np.uint8
        assert out.min() == 0 and out.max() == 255

    def test_nan_renders_black(self):
        img = np.array([[np.nan, 1.0], [0.0, 0.5]])
        out = decode_png(encode_image(img))
        assert out[0, 0] == 0

    def test_all_nan_is_black_frame(self):
        out = decode_png(encode_image(np.full((2, 2), np.nan)))
        assert (out == 0).all()

    def test_small_int_types_promoted(self):
        img = np.array([[1, 2], [3, 4]], dtype=np.int32)
        out = decode_png(encode_image(img))
        assert out.dtype == np.uint8

    def test_large_int_promoted_to_16bit(self):
        img = np.array([[1000, 40000]], dtype=np.int64)
        out = decode_png(encode_image(img))
        assert out.dtype == np.uint16

    def test_out_of_range_int_rejected(self):
        with pytest.raises(CodecError):
            encode_image(np.array([[-5]], dtype=np.int32))

    def test_float_without_autoscale_rejected(self):
        with pytest.raises(CodecError):
            encode_image(np.zeros((2, 2)), auto_scale=False)


def chunk(tag: bytes, body: bytes) -> bytes:
    crc = struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
    return struct.pack(">I", len(body)) + tag + body + crc


def png_of(*chunks: bytes) -> bytes:
    """A PNG of the given chunks, then IEND; every CRC valid."""
    return b"\x89PNG\r\n\x1a\n" + b"".join(chunks) + chunk(b"IEND", b"")


class TestErrors:
    def test_bad_signature(self):
        with pytest.raises(CodecError, match="signature"):
            decode_png(b"JUNKJUNKJUNK")

    def test_crc_mismatch_detected(self):
        data = bytearray(encode_png(np.zeros((4, 4), dtype=np.uint8)))
        # Corrupt one byte inside the IDAT payload.
        idat = data.find(b"IDAT")
        data[idat + 6] ^= 0xFF
        with pytest.raises(CodecError, match="CRC"):
            decode_png(bytes(data))

    def test_truncated(self):
        data = encode_png(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(CodecError):
            decode_png(data[: len(data) // 2])

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(CodecError):
            encode_png(np.zeros((2, 2), dtype=np.float32))

    def test_bad_shape_rejected(self):
        with pytest.raises(CodecError):
            encode_png(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_unknown_filter_strategy(self):
        with pytest.raises(CodecError):
            encode_png(np.zeros((2, 2), dtype=np.uint8), filter_strategy="bogus")

    def test_interlaced_rejected(self):
        # Hand-build an IHDR with interlace=1.
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 1)
        data = png_of(chunk(b"IHDR", ihdr), chunk(b"IDAT", zlib.compress(b"\x00\x00")))
        with pytest.raises(CodecError, match="[Ii]nterlaced"):
            decode_png(data)

    def test_truncated_crc(self):
        data = encode_png(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(CodecError, match="truncated"):
            decode_png(data[:-2])

    def test_short_ihdr(self):
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)[:12]
        data = png_of(chunk(b"IHDR", ihdr), chunk(b"IDAT", zlib.compress(b"\x00\x00")))
        with pytest.raises(CodecError, match="IHDR"):
            decode_png(data)

    def test_corrupt_idat_stream(self):
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        data = png_of(chunk(b"IHDR", ihdr), chunk(b"IDAT", b"not a zlib stream"))
        with pytest.raises(CodecError, match="IDAT"):
            decode_png(data)

    def test_empty_integer_image(self):
        with pytest.raises(CodecError, match="empty"):
            encode_image(np.zeros((0, 3), dtype=np.int32))

    def test_filter_names_complete(self):
        assert FILTER_NAMES == {"none": 0, "sub": 1, "up": 2, "average": 3, "paeth": 4}
