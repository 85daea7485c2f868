"""Contrast stretches (Section 3.2's three scaling approaches)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OperatorError
from repro.raster import (
    erf,
    erfinv,
    gaussian_stretch,
    histogram_equalize,
    linear_stretch,
)


class TestLinearStretch:
    def test_full_range_mapping(self):
        out = linear_stretch(np.array([10.0, 20.0, 30.0]), 10.0, 30.0)
        np.testing.assert_allclose(out, [0.0, 127.5, 255.0])

    def test_clipping(self):
        out = linear_stretch(np.array([0.0, 100.0]), 10.0, 30.0)
        np.testing.assert_allclose(out, [0.0, 255.0])

    def test_constant_frame_maps_to_middle(self):
        out = linear_stretch(np.array([5.0, 5.0]), 5.0, 5.0)
        np.testing.assert_allclose(out, [127.5, 127.5])

    def test_custom_output_range(self):
        out = linear_stretch(np.array([0.0, 1.0]), 0.0, 1.0, out_lo=-1.0, out_hi=1.0)
        np.testing.assert_allclose(out, [-1.0, 1.0])

    def test_monotone(self):
        values = np.sort(np.random.default_rng(0).uniform(0, 100, 50))
        out = linear_stretch(values, 0.0, 100.0)
        assert (np.diff(out) >= 0).all()


class TestHistogramEqualize:
    def test_output_roughly_uniform(self):
        rng = np.random.default_rng(3)
        values = rng.normal(100.0, 10.0, 20_000)
        out = histogram_equalize(values, bins=256)
        # A uniform distribution on [0, 255] has std ~ 73.6.
        assert np.std(out) == pytest.approx(73.6, abs=5.0)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 50, 1000)
        out = histogram_equalize(values)
        order = np.argsort(values, kind="stable")
        assert (np.diff(out[order]) >= -1e-9).all()

    def test_nan_propagates(self):
        out = histogram_equalize(np.array([1.0, np.nan, 2.0, 3.0]))
        assert np.isnan(out[1]) and np.isfinite(out[0])

    def test_constant_input(self):
        out = histogram_equalize(np.full(10, 7.0))
        np.testing.assert_allclose(out, 127.5)


class TestErf:
    @given(x=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_math_erf(self, x):
        import math

        assert float(erf(x)) == pytest.approx(math.erf(x), abs=2e-7)

    @given(y=st.floats(-0.999, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_erfinv_inverts_erf(self, y):
        assert float(erf(erfinv(y))) == pytest.approx(y, abs=1e-6)

    def test_erfinv_domain_checked(self):
        with pytest.raises(OperatorError):
            erfinv(np.array([1.0]))

    def test_scipy_agreement(self):
        from scipy.special import erfinv as scipy_erfinv

        y = np.linspace(-0.99, 0.99, 41)
        # Accuracy is limited by the A&S erf polynomial (~1.5e-7), which
        # Newton amplifies slightly in the tails.
        np.testing.assert_allclose(erfinv(y), scipy_erfinv(y), atol=5e-6)


class TestGaussianStretch:
    def test_output_roughly_gaussian(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, 20_000)  # decidedly non-Gaussian input
        out = gaussian_stretch(values, clip_sigma=3.0)
        # Mean at mid-range, std = 255/6 for a 3-sigma clip.
        assert np.mean(out) == pytest.approx(127.5, abs=2.0)
        assert np.std(out) == pytest.approx(255.0 / 6.0, rel=0.05)

    def test_rank_preserving(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0, 10, 500)
        out = gaussian_stretch(values)
        order = np.argsort(values, kind="stable")
        assert (np.diff(out[order]) >= -1e-9).all()

    def test_nan_propagates(self):
        out = gaussian_stretch(np.array([1.0, np.nan, 3.0]))
        assert np.isnan(out[1])

    def test_all_nan_rejected(self):
        with pytest.raises(OperatorError):
            gaussian_stretch(np.array([np.nan]))
