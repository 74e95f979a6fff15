"""Sample placement and minimum counts."""

import math

import numpy as np
import pytest

from ringsynth.config import resolve_config
from ringsynth.errors import DomainError
from ringsynth.geometry import RingGeometry, uniform_half_wavelength_geometry
from ringsynth.sampling import (
    SampleSet,
    build_sample_set,
    effective_total_count,
    midpoint_abscissas,
    min_batch_samples,
    min_total_samples,
)
from ringsynth.runner import run_synthesis
from ringsynth.targets import flat_top, from_table


def constant_target():
    return from_table([(-1.0, 1.0), (1.0, 1.0)])


class TestMinimumCounts:
    def test_nine_rings_half_wavelength(self):
        geom = uniform_half_wavelength_geometry(9)
        assert min_batch_samples(geom) == 16
        assert min_total_samples(geom) == 32

    def test_eleven_rings(self):
        geom = uniform_half_wavelength_geometry(11)
        assert min_batch_samples(geom) == 20

    def test_fourteen_rings(self):
        geom = uniform_half_wavelength_geometry(14)
        assert min_batch_samples(geom) == 26
        assert min_total_samples(geom) == 52

    def test_floor_dominates_tight_rings(self):
        geom = RingGeometry(1.0, (0.5, 0.625), (6, 8))
        assert min_batch_samples(geom) == 3
        assert min_total_samples(geom) == 6

    def test_single_ring_uses_floor(self):
        geom = RingGeometry(1.0, (0.5,), (6,))
        assert min_batch_samples(geom) == 2
        assert min_total_samples(geom) == 4

    def test_total_always_doubles_batch(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 18))
            gaps = rng.uniform(0.1, 0.9, n)
            radii = tuple(np.cumsum(gaps))
            geom = RingGeometry(1.0, radii, tuple([6] * n))
            assert min_total_samples(geom) == 2 * min_batch_samples(geom)

    def test_uses_largest_adjacent_gap(self):
        geom = RingGeometry(1.0, (0.5, 1.0, 2.5), (6, 13, 31))
        assert min_batch_samples(geom) == math.ceil(4 * 2 * 1.5)


class TestBuildSampleSet:
    def test_midpoint_formula(self):
        assert midpoint_abscissas(4).tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_midpoints_match_scalar_formula_bit_for_bit(self):
        for n in range(1, 2001):
            assert midpoint_abscissas(n).tolist() == [(m + 0.5) / n for m in range(n)], n

    def test_batch_takes_odd_numbered_midpoints(self):
        geom = uniform_half_wavelength_geometry(1)
        samples = build_sample_set(geom, constant_target(), total_count=4)
        assert samples.total_count == 4
        assert samples.batch_count == 2
        assert samples.abscissas[0::2].tolist() == [0.125, 0.625]
        assert samples.abscissas[1::2].tolist() == [0.375, 0.875]

    def test_constant_target_values(self):
        geom = uniform_half_wavelength_geometry(3)
        samples = build_sample_set(geom, constant_target())
        assert all(v == 1.0 for v in samples.values)

    def test_flat_top_values_on_minimum_grid(self):
        geom = uniform_half_wavelength_geometry(9)
        samples = build_sample_set(geom, flat_top(0.4, 0.0))
        assert samples.total_count == 32
        for u, v in zip(samples.abscissas, samples.values):
            assert v == (1.0 if u < 0.4 else 0.0)

    def test_default_size_is_effective_total_count(self):
        # two tight rings: the doubled minimum leaves a square batch, so the
        # one sizing rule grows it two rows past the weight count
        geom = RingGeometry(1.0, (0.5, 0.625), (6, 8))
        samples = build_sample_set(geom, constant_target())
        assert min_total_samples(geom) // 2 == geom.column_count
        assert samples.total_count == effective_total_count(geom)
        assert samples.batch_count == geom.column_count + 2

    def test_oversample_scales_total(self):
        geom = uniform_half_wavelength_geometry(9)
        total = effective_total_count(geom, oversample=2.0)
        samples = build_sample_set(geom, constant_target(), total_count=total)
        assert samples.total_count == 64
        assert samples.batch_count == 32

    def test_oversample_rounds_to_even(self):
        geom = uniform_half_wavelength_geometry(9)
        assert effective_total_count(geom, oversample=1.1) % 2 == 0

    def test_explicit_total_must_be_even(self):
        geom = uniform_half_wavelength_geometry(3)
        with pytest.raises(DomainError):
            build_sample_set(geom, constant_target(), total_count=7)

    def test_rejects_undersampling_factor(self):
        geom = uniform_half_wavelength_geometry(3)
        with pytest.raises(DomainError):
            effective_total_count(geom, oversample=0.5)

    def test_abscissas_strictly_increasing_and_interior(self):
        geom = uniform_half_wavelength_geometry(14)
        total = effective_total_count(geom, oversample=3.0)
        samples = build_sample_set(geom, constant_target(), total_count=total)
        assert all(b > a for a, b in zip(samples.abscissas, samples.abscissas[1:]))
        assert samples.abscissas[0] > 0.0
        assert samples.abscissas[-1] < 1.0


class TestSampleSetValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            SampleSet((0.1, 0.2), (1.0,))

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            SampleSet((0.2, 0.1), (1.0, 1.0))

    def test_rejects_non_finite_value(self):
        with pytest.raises(DomainError):
            SampleSet((0.1, 0.2), (1.0, math.inf))

    @pytest.mark.parametrize(
        "abscissas, values",
        [
            ([[0.1, 0.2], [0.3, 0.4]], [[1.0, 1.0], [1.0, 1.0]]),
            ((0.1, 0.2, 0.3), [[1.0, 1.0, 1.0]]),
            ((0.1, math.nan, 0.3), (1.0, 1.0, 1.0)),
            ((0.1, 0.2, 0.3), (1.0, math.nan, 1.0)),
            ((0.1, 0.2, 0.2), (1.0, 1.0, 1.0)),
            ((0.1, 0.3, 0.2), (1.0, 1.0, 1.0)),
        ],
        ids=["2-d", "shape-mismatch", "nan-abscissa", "nan-value", "repeated", "decreasing"],
    )
    def test_rejects_malformed_arrays(self, abscissas, values):
        with pytest.raises(DomainError):
            SampleSet(abscissas, values)

    def test_holds_read_only_float_arrays(self):
        given = np.array([0.25, 0.75])
        samples = SampleSet(given, [1, 2])
        assert samples.values.dtype == np.float64
        for array in (samples.abscissas, samples.values):
            with pytest.raises(ValueError):
                array[0] = 0.0
        given[0] = 0.5
        assert samples.abscissas[0] == 0.25

    @pytest.mark.parametrize("total", [1, 2, 19, 20, 21])
    def test_batch_count_follows_even_index_split(self, total):
        samples = SampleSet(midpoint_abscissas(total), (1.0,) * total)
        assert samples.batch_count == len(samples.abscissas[0::2])
        assert samples.batch_count + len(samples.abscissas[1::2]) == total



class TestApertureFloor:
    """Two close rings on a wide aperture: the ring-spacing rule alone sizes
    the batch by the 0.1-wavelength gap and undersamples a pattern whose
    detail is set by the 10.1-wavelength outer radius."""

    RAW = {
        "geometry": {"wavelength": 1.0, "radii": [10.0, 10.1], "counts": [63, 63]},
        "target": {"kind": "flat_top", "passband_edge": 0.3, "transition_width": 0.1},
    }

    def run(self, oversample):
        raw = {**self.RAW, "solver": {"oversample": oversample}}
        cfg, _ = resolve_config(raw)
        report = run_synthesis(cfg)
        weights = np.array([report.weights.center, *report.weights.rings])
        return report, weights

    def test_batch_floor_resolves_the_aperture(self):
        geom = RingGeometry(1.0, (10.0, 10.1), (63, 63))
        assert min_batch_samples(geom) >= 22  # ceil(2 * 10.1 / 1) + 1

    def test_default_sampling_matches_oversampled_fit(self):
        report, weights = self.run(1.0)
        fine, fine_weights = self.run(8.0)
        assert report.samples.batch_count >= 22
        assert report.metrics.rms_error_vs_target_db == pytest.approx(
            fine.metrics.rms_error_vs_target_db, abs=0.01
        )
        assert np.max(np.abs(weights - fine_weights)) < 1e-3
