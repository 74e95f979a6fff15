"""Target pattern generators: shapes, normalization, and error handling."""

import math

import numpy as np
import pytest

from ringsynth.errors import DomainError, TableFormatError
from ringsynth.targets import (
    TargetPattern,
    _chebyshev,
    difference,
    equi_ripple,
    flat_top,
    from_table,
    load_table,
    with_nulls,
)

SCAN = np.linspace(-1.0, 1.0, 10001)

# Every target kind, notches over a signed and over a non-negative base.
BUILDS = {
    "flat_top": lambda: flat_top(0.4, 0.12),
    "equi_ripple": lambda: equi_ripple(-30.0, 10),
    "difference": lambda: difference(-25.0, 11),
    "with_nulls": lambda: with_nulls(equi_ripple(-16.0, 14), [0.35, 0.65], -40.0, 0.1),
    "flat_top_with_nulls": lambda: with_nulls(flat_top(0.3, 0.1), [0.6], -40.0, 0.05),
    "tabulated": lambda: from_table([(-1.0, -4.0), (-0.2, 0.5), (0.0, 2.0), (1.0, -4.0)]),
}


def scan_peak(target) -> float:
    return float(np.max(target.amplitude(SCAN)))


def local_maxima(values: np.ndarray) -> np.ndarray:
    return np.where((values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:]))[0] + 1


class TestFlatTop:
    def test_passband_and_stopband(self):
        t = flat_top(0.4, 0.0)
        assert t.amplitude(0.2) == 1.0
        assert t.amplitude(0.7) == 0.0

    def test_raised_cosine_midpoint(self):
        t = flat_top(0.4, 0.1)
        assert t.amplitude(0.45) == pytest.approx(0.5, abs=1e-12)

    def test_even(self):
        t = flat_top(0.4, 0.12)
        for u in np.linspace(0, 1, 500):
            assert abs(t.amplitude(float(u)) - t.amplitude(-float(u))) <= 1e-12

    def test_peak_normalized(self):
        assert scan_peak(flat_top(0.4, 0.12)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("edge", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_edge(self, edge):
        with pytest.raises(DomainError):
            flat_top(edge)

    def test_rejects_transition_past_one(self):
        with pytest.raises(DomainError):
            flat_top(0.9, 0.2)


class TestEquiRipple:
    def test_peak_at_boresight(self):
        t = equi_ripple(-30.0, 10)
        assert t.amplitude(0.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sll_db", [-30.0, -16.0])
    def test_sidelobe_extrema_at_design_level(self, sll_db):
        t = equi_ripple(sll_db, 10)
        edge = float(t.params["main_lobe_edge"])
        values = t.amplitude(np.linspace(edge, 1.0, 10000))
        peaks = values[local_maxima(values)]
        level_db = 20.0 * np.log10(peaks)
        assert np.all(np.abs(level_db - sll_db) <= 0.5)

    def test_even(self):
        t = equi_ripple(-30.0, 8)
        for u in np.linspace(0, 1, 400):
            assert abs(t.amplitude(float(u)) - t.amplitude(-float(u))) <= 1e-12

    def test_signed_form_matches_magnitude(self):
        t = equi_ripple(-25.0, 6)
        for u in np.linspace(-1, 1, 300):
            assert abs(t.sample_value(float(u))) == pytest.approx(
                t.amplitude(float(u)), abs=1e-15
            )

    def test_peak_normalized(self):
        assert scan_peak(equi_ripple(-30.0, 10)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sll_db", [-2.0, -90.0, 0.0, 5.0])
    def test_rejects_out_of_range_sll(self, sll_db):
        with pytest.raises(DomainError):
            equi_ripple(sll_db, 10)


class TestDifference:
    def test_boresight_null(self):
        t = difference(-25.0, 11)
        assert t.amplitude(0.0) == 0.0

    def test_peak_normalized(self):
        t = difference(-25.0, 11)
        peak = scan_peak(t)
        assert peak <= 1.0 + 1e-12
        # the true twin-lobe peak sits between grid points; polish locally
        grid_idx = int(np.argmax(t.amplitude(SCAN)))
        a, b = SCAN[grid_idx - 1], SCAN[grid_idx + 1]
        for _ in range(80):
            m1, m2 = a + (b - a) / 3, b - (b - a) / 3
            if t.amplitude(m1) < t.amplitude(m2):
                a = m1
            else:
                b = m2
        assert t.amplitude(0.5 * (a + b)) == pytest.approx(1.0, abs=1e-9)

    def test_twin_lobes(self):
        t = difference(-25.0, 11)
        shift = float(t.params["lobe_shift"])
        assert t.amplitude(shift) > 0.8
        assert t.amplitude(-shift) > 0.8

    def test_sidelobes_below_requested_level(self):
        t = difference(-25.0, 11)
        edge = float(t.params["main_lobe_edge"])
        values = t.amplitude(np.linspace(edge, 1.0, 10000))
        assert 20.0 * math.log10(values.max()) <= -25.0 + 1e-6

    @pytest.mark.parametrize("rings", [3, 5, 11, 200, 2000])
    def test_fixed_margin_meets_bound_across_sll_range(self, rings):
        # at 3 rings the sidelobe region starts beyond |u| = 1
        for sll_db in np.arange(-80.0, -2.5, 1.0):
            t = difference(sll_db, rings)
            edge = min(float(t.params["main_lobe_edge"]), 1.0)
            worst = np.abs(t.sample_value(np.linspace(edge, 1.0, 4001))).max()
            assert worst <= 10.0 ** (sll_db / 20.0), (sll_db, worst)

    def test_magnitude_is_even(self):
        t = difference(-20.0, 9)
        for u in np.linspace(0, 1, 300):
            assert t.amplitude(float(u)) == pytest.approx(t.amplitude(-float(u)), abs=1e-12)

    def test_signed_form_is_odd(self):
        t = difference(-25.0, 11)
        for u in np.linspace(0.01, 1, 100):
            assert t.sample_value(float(u)) == pytest.approx(
                -t.sample_value(-float(u)), abs=1e-12
            )


class TestWithNulls:
    def test_notch_reaches_depth_on_flat_base(self):
        base = flat_top(0.9, 0.0)
        t = with_nulls(base, [0.5], -40.0, 0.05)
        assert t.amplitude(0.5) == pytest.approx(0.01, abs=1e-12)

    def test_empty_list_is_identity(self):
        base = equi_ripple(-20.0, 5)
        assert with_nulls(base, [], -40.0, 0.05) is base

    def test_unchanged_outside_notches(self):
        base = equi_ripple(-16.0, 14)
        t = with_nulls(base, [0.35, 0.65], -40.0, 0.1)
        u = np.linspace(-1, 1, 2000)
        outside = np.minimum(np.abs(u - 0.35), np.abs(u - 0.65)) >= 0.1
        assert np.max(np.abs(t.amplitude(u) - base.amplitude(u))[outside]) <= 1e-12

    def test_notch_factor_floor(self):
        base = equi_ripple(-16.0, 14)
        t = with_nulls(base, [0.35, 0.65], -40.0, 0.1)
        for center in (0.35, 0.65):
            ratio = t.amplitude(center) / base.amplitude(center)
            assert ratio == pytest.approx(10.0 ** (-40.0 / 20.0), rel=1e-9)

    def test_rejects_overlapping_notches(self):
        base = flat_top(0.9, 0.0)
        with pytest.raises(DomainError):
            with_nulls(base, [0.5, 0.55], -40.0, 0.05)

    def test_rejects_depth_above_base_sll(self):
        base = equi_ripple(-30.0, 10)
        with pytest.raises(DomainError):
            with_nulls(base, [0.5], -20.0, 0.05)

    def test_rejects_center_outside_visible(self):
        base = flat_top(0.5, 0.0)
        with pytest.raises(DomainError):
            with_nulls(base, [1.0], -40.0, 0.05)

    def test_kind_records_base(self):
        t = with_nulls(equi_ripple(-16.0, 14), [0.4], -40.0, 0.05)
        assert t.kind == "equi_ripple_with_nulls"

    def test_peak_normalization_survives_notching(self):
        t = with_nulls(equi_ripple(-16.0, 14), [0.35, 0.65], -40.0, 0.1)
        assert scan_peak(t) == pytest.approx(1.0, abs=1e-9)

    def test_notched_samples_are_magnitudes(self):
        # notching drops the base's signed form: the sampled value is the
        # non-negative amplitude product
        t = with_nulls(equi_ripple(-16.0, 14), [0.35], -40.0, 0.1)
        for u in np.linspace(-1, 1, 200):
            assert t.sample_value(float(u)) == t.amplitude(float(u))
            assert t.sample_value(float(u)) >= 0.0


class TestFromTable:
    def test_linear_interpolation(self):
        t = from_table([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        assert t.amplitude(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_peak_normalization(self):
        t = from_table([(-1.0, 2.0), (1.0, 2.0)])
        for u in (-1.0, -0.3, 0.8):
            assert t.amplitude(u) == pytest.approx(1.0, abs=1e-12)

    def test_constant_extrapolation(self):
        t = from_table([(-0.5, 1.0), (0.5, 2.0)])
        assert t.amplitude(-0.9) == pytest.approx(0.5, abs=1e-12)
        assert t.amplitude(0.9) == pytest.approx(1.0, abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(TableFormatError):
            from_table([(0.0, 1.0)])

    def test_unsorted_rejected(self):
        with pytest.raises(TableFormatError):
            from_table([(0.5, 1.0), (-0.5, 1.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(TableFormatError):
            from_table([(0.0, 1.0), (0.0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(TableFormatError):
            from_table([(-2.0, 1.0), (0.0, 1.0)])

    def test_all_zero_rejected(self):
        with pytest.raises(TableFormatError):
            from_table([(-1.0, 0.0), (1.0, 0.0)])

    def test_signed_table_normalizes_by_magnitude(self):
        t = from_table([(-1.0, -4.0), (0.0, 2.0), (1.0, -4.0)])
        assert scan_peak(t) == pytest.approx(1.0, abs=1e-9)
        assert t.sample_value(-1.0) == pytest.approx(-1.0, abs=1e-12)
        assert t.amplitude(-1.0) == pytest.approx(1.0, abs=1e-12)


class TestLoadTable:
    def test_reads_csv_with_header(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("u,amplitude\n-1.0,0.0\n0.0,1.0\n1.0,0.0\n", encoding="utf-8")
        t = load_table(path)
        assert t.amplitude(0.0) == pytest.approx(1.0)

    def test_reads_csv_without_header(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("-1.0,0.5\n1.0,1.0\n", encoding="utf-8")
        t = load_table(path)
        assert t.amplitude(1.0) == pytest.approx(1.0)

    def test_rejects_missing_column(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("-1.0\n1.0\n", encoding="utf-8")
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(TableFormatError):
            load_table(tmp_path / "absent.csv")

    def test_rejects_non_numeric_row(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("u,v\n0.0,1.0\nbad,row\n", encoding="utf-8")
        with pytest.raises(TableFormatError):
            load_table(path)


class TestArrayEvaluation:
    @pytest.mark.parametrize("order", [1, 2, 5, 8, 19, 20])
    def test_chebyshev_matches_chebval(self, order):
        # x < -1 with an odd order is the sign-flipped cosh branch, which no
        # bundled target reaches
        x = np.linspace(-3.0, 3.0, 6001)
        coef = np.zeros(order + 1)
        coef[-1] = 1.0
        want = np.polynomial.chebyshev.chebval(x, coef)
        np.testing.assert_allclose(_chebyshev(order, x), want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kind", BUILDS)
    def test_grid_call_matches_per_point_calls(self, kind):
        t = BUILDS[kind]()
        grid = np.linspace(-1.0, 1.0, 2001)
        for method in (t.amplitude, t.sample_value):
            per_point = np.array([method(float(u)) for u in grid])
            assert np.array_equal(method(grid), per_point)
            assert method(grid.reshape(3, 667)).shape == (3, 667)
            assert isinstance(method(0.3), float)

    @pytest.mark.parametrize("kind", BUILDS)
    def test_amplitude_is_magnitude_of_sample_value(self, kind):
        t = BUILDS[kind]()
        grid = np.linspace(-1.0, 1.0, 2001)
        assert np.array_equal(t.amplitude(grid), np.abs(t.sample_value(grid)))
        if kind.endswith("with_nulls"):
            assert np.all(t.sample_value(grid) >= 0.0)

    def test_amplitude_does_not_call_sample_value(self, monkeypatch):
        # the benchmark tracer counts each method: one amplitude call must
        # stay one evaluation
        def fail(self, u):
            raise AssertionError("amplitude went through sample_value")

        monkeypatch.setattr(TargetPattern, "sample_value", fail)
        t = equi_ripple(-25.0, 6)
        assert t.amplitude(0.0) == pytest.approx(1.0, abs=1e-12)
        assert np.all(t.amplitude(SCAN) >= 0.0)
