"""Ring geometry construction and forward pattern evaluation."""

import math

import numpy as np
import pytest

from ringsynth.errors import DomainError
from ringsynth.geometry import (
    RingGeometry,
    Weights,
    array_factor,
    elements_for_spacing,
    uniform_half_wavelength_geometry,
)


class TestElementsForSpacing:
    def test_half_wavelength_ring_counts(self):
        assert elements_for_spacing(0.5, 0.5) == 6
        assert elements_for_spacing(1.0, 0.5) == 13
        assert elements_for_spacing(4.5, 0.5) == 57

    def test_full_wavelength_spacing(self):
        # round(2*pi*4.5/1.0) = round(9*pi) = round(28.274)
        assert elements_for_spacing(4.5, 1.0) == 28

    def test_minimum_one_element(self):
        assert elements_for_spacing(0.01, 10.0) == 1

    @pytest.mark.parametrize("radius,spacing", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_non_positive(self, radius, spacing):
        with pytest.raises(DomainError):
            elements_for_spacing(radius, spacing)


class TestChordSpacing:
    def test_round_trip_approaches_target(self):
        # the realized chord 2*r*sin(pi/N) between adjacent elements
        # converges on the requested spacing for large counts
        for radius in (2.0, 5.0, 9.0):
            count = elements_for_spacing(radius, 0.5)
            realized = 2.0 * radius * math.sin(math.pi / count)
            assert abs(realized - 0.5) <= 0.5 / count


class TestUniformGeometry:
    def test_nine_ring_layout(self):
        geom = uniform_half_wavelength_geometry(9, 1.0)
        assert geom.radii == tuple(0.5 * n for n in range(1, 10))
        assert geom.elements_per_ring == (6, 13, 19, 25, 31, 38, 44, 50, 57)
        assert geom.has_center_element

    def test_single_ring(self):
        geom = uniform_half_wavelength_geometry(1, 2.0)
        assert geom.radii == (1.0,)
        assert geom.elements_per_ring == (6,)

    def test_fourteen_rings(self):
        geom = uniform_half_wavelength_geometry(14, 1.0)
        assert len(geom.radii) == 14
        assert geom.radii[-1] == 7.0
        assert geom.elements_per_ring == (6, 13, 19, 25, 31, 38, 44, 50, 57, 63, 69, 75, 82, 88)

    def test_scales_with_wavelength(self):
        geom = uniform_half_wavelength_geometry(3, 2.0)
        assert geom.radii == (1.0, 2.0, 3.0)
        assert geom.elements_per_ring == uniform_half_wavelength_geometry(3, 1.0).elements_per_ring


class TestRingGeometryValidation:
    def test_rejects_unsorted_radii(self):
        with pytest.raises(DomainError):
            RingGeometry(1.0, (1.0, 0.5), (6, 6))

    def test_rejects_duplicate_radii(self):
        with pytest.raises(DomainError):
            RingGeometry(1.0, (1.0, 1.0), (6, 6))

    def test_rejects_bad_wavelength(self):
        with pytest.raises(DomainError):
            RingGeometry(0.0, (1.0,), (6,))

    def test_rejects_mismatched_counts(self):
        with pytest.raises(DomainError):
            RingGeometry(1.0, (1.0, 2.0), (6,))

    def test_rejects_empty_ring(self):
        with pytest.raises(DomainError):
            RingGeometry(1.0, (1.0,), (0,))

    def test_wavenumber(self):
        geom = RingGeometry(2.0, (1.0,), (6,))
        assert geom.wavenumber == pytest.approx(math.pi, abs=1e-15)


class TestArrayFactor:
    def test_all_zero_weights(self):
        geom = uniform_half_wavelength_geometry(3)
        w = Weights(center=0, rings=(0, 0, 0))
        assert array_factor(geom, w, 0.3) == 0

    def test_center_only_constant(self):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        w = Weights(center=1, rings=(0,))
        for u in (-1.0, -0.2, 0.0, 0.7, 1.0):
            assert array_factor(geom, w, u) == 1

    def test_single_ring_at_boresight(self):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        w = Weights(center=1, rings=(1,))
        assert array_factor(geom, w, 0.0) == pytest.approx(7.0, abs=1e-12)

    def test_even_in_u_exact(self):
        rng = np.random.default_rng(3)
        geom = uniform_half_wavelength_geometry(5)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(5)))
        for u in rng.uniform(0, 1, 20):
            assert array_factor(geom, w, float(u)) == array_factor(geom, w, -float(u))

    def test_linear_in_weights(self):
        rng = np.random.default_rng(11)
        geom = uniform_half_wavelength_geometry(4)
        w1 = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(4)))
        w2 = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(4)))
        alpha, beta = 1.7, -0.9
        combined = Weights(
            center=alpha * w1.center + beta * w2.center,
            rings=tuple(alpha * a + beta * b for a, b in zip(w1.rings, w2.rings)),
        )
        for u in rng.uniform(-1, 1, 20):
            direct = array_factor(geom, combined, float(u))
            parts = alpha * array_factor(geom, w1, float(u)) + beta * array_factor(
                geom, w2, float(u)
            )
            assert direct == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_rejects_out_of_range_u(self):
        geom = uniform_half_wavelength_geometry(2)
        w = Weights(center=1, rings=(1, 1))
        with pytest.raises(DomainError):
            array_factor(geom, w, 1.5)

    def test_rejects_mismatched_weights(self):
        geom = uniform_half_wavelength_geometry(2)
        with pytest.raises(DomainError):
            array_factor(geom, Weights(center=1, rings=(1,)), 0.0)

    def test_center_flag_respected(self):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=False)
        w = Weights(center=123.0, rings=(0,))
        assert array_factor(geom, w, 0.2) == 0
