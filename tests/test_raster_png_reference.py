"""The block-wise PNG encoder against its per-scanline reference.

``encode_png`` filters a block of scanlines per numpy call and
``encode_image`` scales float frames in place;
:mod:`tests.reference.png` keeps the per-scanline encoder and the copying
scaler they replaced. For every color type, shape and filter strategy the
two must emit the same bytes, and the block-wise path may not need more
memory than the reference.

Both share the PNG framing (signature, IHDR layout), so a fault there
would be invisible to the comparison; the golden digest pins the bytes of
a fixed set of scene frames independently.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ingest import SyntheticEarth
from repro.raster import decode_png, encode_image, encode_png
from repro.raster.png import _BLOCK_BYTES

from tests.conftest import DAY_T0
from tests.reference import png as reference

STRATEGIES = ("adaptive", "none", "sub", "up", "average", "paeth")

# SHA-256 of every PNG of :func:`golden_pngs`, in order, recorded with the
# per-scanline encoder (the reference) before the block-wise one replaced it.
GOLDEN_DIGEST = "2dac430686854f3986fbbe1891e221dbcebfedbe2023adba8cdad2a572da8c51"


def scene_frames() -> dict[str, np.ndarray]:
    """Frames of the delivered kinds, from the seed-7 scene over the western US."""
    earth = SyntheticEarth(seed=7)
    lon, lat = np.meshgrid(np.linspace(-125.0, -105.0, 256), np.linspace(48.0, 30.0, 128))
    vis = earth.reflectance("vis", lon, lat, DAY_T0).astype(np.float32)
    nir = earth.reflectance("nir", lon, lat, DAY_T0).astype(np.float32)
    counts = earth.digitize("nir", lon, lat, DAY_T0, bits=10)
    ndvi = ((nir - vis) / (nir + vis))[40:72, 96:160]
    ndvi[::7, ::5] = np.nan
    ndvi[3, :] = np.inf
    ndvi[:, 2] = -np.inf
    return {
        # magnify(reflectance(goes.vis), 3) and (goes.nir, 2): deliver_rows' frames
        "vis_x3": np.repeat(np.repeat(vis, 3, axis=0), 3, axis=1),
        "nir_x2": np.repeat(np.repeat(nir, 2, axis=0), 2, axis=1),
        # a mixed_rows-sized NDVI window with NaN and +-inf holes
        "ndvi_holes": ndvi,
        "stretched": (vis[:32, :64] * 255.0).astype(np.uint8),
        "counts": counts,
        "counts_int32": counts.astype(np.int32),
        "all_nan": np.full((2, 3), np.nan, dtype=np.float32),
        "rgb": np.stack([vis * 255.0, nir * 255.0, counts >> 2], axis=-1).astype(np.uint8),
        # one 9 000-byte row per block
        "wide16": np.tile(counts[60], 36)[:9000].reshape(2, 4500),
        "pixel": np.array([[42]], dtype=np.uint8),
        "column": counts[:40, :1],
    }


def golden_pngs() -> list[bytes]:
    frames = scene_frames()
    out = [encode_image(values) for values in frames.values()]
    for name in ("stretched", "counts", "rgb", "wide16", "column"):
        out.extend(encode_png(frames[name], filter_strategy=s) for s in STRATEGIES)
    return out


def test_golden_digest():
    h = hashlib.sha256()
    for data in golden_pngs():
        h.update(data)
    assert h.hexdigest() == GOLDEN_DIGEST


# -- the differential property ---------------------------------------------------

KINDS = {"gray8": (np.uint8, 1, 1), "gray16": (np.uint16, 1, 2), "rgb8": (np.uint8, 3, 3)}


def make_image(kind: str, h: int, w: int, content: str, seed: int) -> np.ndarray:
    dtype, channels, _ = KINDS[kind]
    top = int(np.iinfo(dtype).max)
    shape = (h, w) if channels == 1 else (h, w, channels)
    rng = np.random.default_rng(seed)
    if content == "noise":
        return rng.integers(0, top + 1, shape, dtype=dtype)
    if content == "constant":
        return np.full(shape, rng.integers(0, top + 1), dtype=dtype)
    # smooth ramps with a little noise and some saturated pixels: every
    # filter wins on some row, and ties between filters are common
    ys, xs = np.indices(shape[:2])
    ramp = (ys * rng.integers(0, 9) + xs * rng.integers(0, 9)) * (top // 255)
    if channels == 3:
        ramp = ramp[..., None] + np.arange(3) * 40
    values = ramp + rng.integers(0, 3, shape)
    values[rng.random(shape) < 0.05] = top
    return (values % (top + 1)).astype(dtype)


def block_rows(kind: str, w: int) -> int:
    return max(1, _BLOCK_BYTES // (w * KINDS[kind][2]))


@st.composite
def images(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    w = draw(st.one_of(st.integers(1, 2), st.integers(3, 300), st.just(_BLOCK_BYTES // 2 + 1)))
    rows = block_rows(kind, w)
    if w * KINDS[kind][2] > _BLOCK_BYTES:  # one row per block
        h = draw(st.integers(1, 3))
    elif rows > 64:  # narrow rows: the first block edge is far down, and the reference slow
        h = draw(st.integers(1, 8))
    else:  # heights that straddle a block edge
        h = draw(st.sampled_from([1, max(1, rows - 1), rows, rows + 1, 2 * rows + 1]))
    content = draw(st.sampled_from(["smooth", "noise", "constant"]))
    return make_image(kind, h, w, content, draw(st.integers(0, 2**16)))


@given(values=images(), strategy=st.sampled_from(STRATEGIES))
@example(values=make_image("gray8", 1, 1, "smooth", 0), strategy="adaptive")
@example(values=make_image("gray8", 5, 1, "smooth", 1), strategy="adaptive")
@example(values=make_image("gray16", 5, 1, "smooth", 2), strategy="paeth")
@example(values=make_image("rgb8", 4, 2, "smooth", 3), strategy="adaptive")
@example(values=make_image("gray8", block_rows("gray8", 768) + 1, 768, "smooth", 4), strategy="up")
@example(values=make_image("gray16", 3, _BLOCK_BYTES // 2 + 1, "smooth", 5), strategy="adaptive")
@example(values=make_image("rgb8", 2, _BLOCK_BYTES // 3 + 1, "noise", 6), strategy="average")
@settings(max_examples=60, deadline=None, derandomize=True)
def test_block_encoder_matches_reference(values, strategy):
    produced = encode_png(values, filter_strategy=strategy)
    assert produced == reference.encode_png(values, filter_strategy=strategy)
    assert (decode_png(produced) == values).all()


# -- memory ------------------------------------------------------------------------


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def holed_frame() -> np.ndarray:
    """A 384x768 float32 frame (deliver_rows' size) with NaN and +-inf."""
    frame = scene_frames()["vis_x3"]
    frame[::11, ::13] = np.nan
    frame[5, :] = np.inf
    frame[:, 7] = -np.inf
    return frame


def test_encode_image_peak_not_above_reference(holed_frame):
    assert encode_image(holed_frame) == reference.encode_image(holed_frame)
    peak = traced_peak(encode_image, holed_frame)
    assert peak <= traced_peak(reference.encode_image, holed_frame)


def test_encode_png_peak_not_above_reference(holed_frame):
    gray = (np.nan_to_num(holed_frame, posinf=1.0, neginf=0.0) * 255.0).astype(np.uint8)
    assert traced_peak(encode_png, gray) <= traced_peak(reference.encode_png, gray)
