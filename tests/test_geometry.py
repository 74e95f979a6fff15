"""Ring geometry construction and forward pattern evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ringsynth.analysis import pattern_on_grid
from ringsynth.errors import DomainError
from ringsynth.geometry import (
    RingGeometry,
    Weights,
    elements_for_spacing,
    uniform_half_wavelength_geometry,
)
from ringsynth.solver import build_design_matrix


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

    def test_rejects_wavelength_whose_wavenumber_overflows(self):
        # 2*pi/1e-310 is inf, which would reach J0 as an infinite argument
        with pytest.raises(DomainError, match="2\\*pi/wavelength overflows"):
            RingGeometry(1e-310, (1e-310,), (6,))

    def test_rejects_mismatched_counts(self):
        with pytest.raises(DomainError):
            RingGeometry(1.0, (1.0, 2.0), (6,))

    def test_rejects_empty_ring(self):
        with pytest.raises(DomainError):
            RingGeometry(1.0, (1.0,), (0,))

    def test_rejects_a_layout_without_weights(self):
        # no ring and no center: nothing to fit, and the ring block would be 0 columns wide
        with pytest.raises(DomainError, match="at least one ring or a center element"):
            RingGeometry(1.0, (), (), False)

    @pytest.mark.parametrize(
        "count, problem",
        [(2.7, "must be a whole number in the float range"), (math.nan, "must be finite"),
         (math.inf, "must be finite"), (10**400, "beyond the float range")],
        ids=["fraction", "nan", "inf", "beyond-float"],
    )
    def test_rejects_counts_that_are_no_whole_float_range_number(self, count, problem):
        with pytest.raises(DomainError, match=f"^each element count {problem}$"):
            RingGeometry(1.0, (0.5,), (count,))

    def test_whole_counts_read_as_int(self):
        geom = RingGeometry(1.0, (0.5, 1.0), (6.0, np.int64(13)))
        assert geom.elements_per_ring == (6, 13)
        assert all(type(n) is int for n in geom.elements_per_ring)

    def test_rejects_complex_radius(self):
        with pytest.raises(DomainError, match="radii must be real"):
            RingGeometry(1.0, (np.complex128(0.5 + 1j),), (6,))

    def test_rejects_complex_wavelength(self):
        with pytest.raises(DomainError, match="wavelength must be real"):
            RingGeometry(np.complex128(1 + 1j), (0.5,), (6,))

    def test_wavenumber(self):
        geom = RingGeometry(2.0, (1.0,), (6,))
        assert geom.wavenumber == pytest.approx(math.pi, abs=1e-15)


class TestArrayFactor:
    """The module docstring's F(u), as the analysis stage evaluates it.

    ``pattern_on_grid`` is checked against an mpmath oracle that shares no
    code with the package's J0 or basis builder.
    """

    U = np.linspace(-1.0, 1.0, 41)

    def test_all_zero_weights(self):
        geom = uniform_half_wavelength_geometry(3)
        w = Weights(center=0, rings=(0, 0, 0))
        assert np.all(pattern_on_grid(geom, w, self.U) == 0)

    def test_center_only_constant(self):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        w = Weights(center=1, rings=(0,))
        assert np.all(pattern_on_grid(geom, w, self.U) == 1)

    def test_single_ring_at_boresight(self, pattern_oracle):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        w = Weights(center=1, rings=(1,))
        assert pattern_on_grid(geom, w, [0.0])[0] == pytest.approx(7.0, abs=1e-12)
        assert pattern_oracle(geom, w, 0.0)[0] == 7.0

    def test_even_in_u_exact(self):
        rng = np.random.default_rng(3)
        geom = uniform_half_wavelength_geometry(5)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(5)))
        u = rng.uniform(0, 1, 20)
        assert np.array_equal(pattern_on_grid(geom, w, u), pattern_on_grid(geom, w, -u))

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
        u = rng.uniform(-1, 1, 20)
        direct = pattern_on_grid(geom, combined, u)
        parts = alpha * pattern_on_grid(geom, w1, u) + beta * pattern_on_grid(geom, w2, u)
        assert direct == pytest.approx(parts, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("center", [False, True])
    def test_matches_mpmath_oracle(self, pattern_oracle, center):
        rng = np.random.default_rng(13)
        radii = (0.5, 1.25, 2.0, 3.5, 6.0)
        geom = RingGeometry(0.8, radii, (6, 14, 19, 30, 47), has_center_element=center)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(5)))
        u = np.concatenate([self.U, rng.uniform(-1, 1, 40)])
        scale = sum(abs(r) * n for r, n in zip(w.rings, geom.elements_per_ring))
        error = np.abs(pattern_on_grid(geom, w, u) - pattern_oracle(geom, w, u))
        assert error.max() <= 1e-13 * scale

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("n_rings", [1, 20, 500])
    def test_matches_design_matrix_columns_bit_for_bit(self, n_rings, center):
        # the pattern's basis is the whole design matrix, the center column
        # included, each row summed on its own (no BLAS tail-row rounding)
        rng = np.random.default_rng(n_rings)
        geom = replace(uniform_half_wavelength_geometry(n_rings), has_center_element=center)
        rings = rng.standard_normal(n_rings)
        w = Weights(center=0.3, rings=tuple(rings))
        u = np.linspace(-1.0, 1.0, 1001)
        full_vector = np.append(rings, w.center)[: geom.column_count]
        want = np.einsum("ij,j->i", build_design_matrix(geom, u).entries, full_vector)
        got = pattern_on_grid(geom, w, u)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_rejects_mismatched_weights(self):
        geom = uniform_half_wavelength_geometry(2)
        with pytest.raises(DomainError):
            pattern_on_grid(geom, Weights(center=1, rings=(1,)), self.U)
        # the two that fit the design's column count: a ring weight read as
        # the center, and the center read as a ring
        with pytest.raises(DomainError, match="3 rings but geometry has 2"):
            pattern_on_grid(geom, Weights(center=1, rings=(1, 1, 1)), self.U)
        no_center = replace(geom, has_center_element=False)
        with pytest.raises(DomainError, match="1 rings but geometry has 2"):
            pattern_on_grid(no_center, Weights(center=1, rings=(1,)), self.U)

    def test_center_flag_respected(self, pattern_oracle):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=False)
        w = Weights(center=123.0, rings=(0,))
        assert np.all(pattern_on_grid(geom, w, self.U) == 0)
        assert np.all(pattern_oracle(geom, w, self.U) == 0)
