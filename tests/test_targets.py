"""Target pattern generators: shapes, normalization, and error handling."""

import math

import mpmath
import numpy as np
import pytest

from ringsynth import targets
from ringsynth.analysis import _symmetric_grid
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


def where_notched_amplitude(base, centers, depth_db, width, u):
    """Reference notched amplitude: every dip evaluated over the whole grid, kept by np.where."""
    u = np.asarray(u, dtype=float)
    depth_lin = 10.0 ** (depth_db / 20.0)
    factor = np.ones_like(u)
    for c in centers:
        t = (u - c) / width
        dip = 1.0 - (1.0 - depth_lin) * 0.5 * (1.0 + np.cos(np.pi * t))
        factor = np.where(np.abs(t) < 1.0, factor * dip, factor)
    return np.abs(np.abs(base.sample_value(u)) * factor)


# (base, centers, depth dB, half-width); the dyadic case puts u - c exactly at +/- width
NOTCH_CASES = [
    (equi_ripple(-16.0, 14), [0.35, 0.65], -40.0, 0.1),
    (flat_top(0.3, 0.1), [-0.6, 0.5], -40.0, 0.125),
    (equi_ripple(-30.0, 20), [0.4123, 0.7517], -40.0, 0.06),
]

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


def ternary_argmax(f, a: float, b: float) -> float:
    """Abscissa of the max of f in [a, b] by 80 ternary steps (the peak polish
    difference() used before its zoom rounds, kept as an oracle)."""
    for _ in range(80):
        m1, m2 = a + (b - a) / 3, b - (b - a) / 3
        if f(m1) < f(m2):
            a = m1
        else:
            b = m2
    return 0.5 * (a + b)


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

    def test_rejects_complex_abscissas(self):
        with pytest.raises(DomainError, match="must be real"):
            flat_top(0.3, 0.1).amplitude(np.array([0.1 + 0.5j]))


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

    @pytest.mark.parametrize("rings", [11, 200, 2000])
    def test_main_lobe_to_a_few_eps_at_any_order(self, rings):
        # x = x0 cos(pi u / 2) rounded just above 1 loses about
        # order^2 * eps / acosh(ratio) through acosh; the reference is built
        # from the exact a = acosh(ratio) / order, not from the rounded x0,
        # which would carry the same cancellation
        order, ratio = 2 * rings - 1, 10.0 ** (25.0 / 20.0)
        errors = []
        with mpmath.workdps(40):
            x0 = mpmath.cosh(mpmath.acosh(ratio) / order)
            edge = float(2 / mpmath.pi * mpmath.acos(1 / x0))
            u = np.linspace(-edge, edge, 201)[1:-1]
            got = equi_ripple(-25.0, rings).sample_value(u)
            for v, g in zip(u.tolist(), got.tolist()):
                x = x0 * mpmath.cos(mpmath.pi * mpmath.mpf(v) / 2)
                want = mpmath.cosh(order * mpmath.acosh(x)) / ratio
                errors.append(float(abs((g - want) / want)))
        assert max(errors) <= 32 * np.finfo(float).eps

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
        u_star = ternary_argmax(t.amplitude, SCAN[grid_idx - 1], SCAN[grid_idx + 1])
        assert t.amplitude(u_star) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("rings", [3, 11, 50, 200, 2000])
    @pytest.mark.parametrize("sll_db", [-80.0, -25.0, -3.0])
    def test_peak_is_the_true_peak_to_evaluation_noise(self, rings, sll_db):
        t = difference(sll_db, rings)
        # The beam's evaluation noise grows with its order: T_n takes
        # n * acosh(x) with x just above 1 in the main lobe, where acosh
        # magnifies x's rounding.  Over these orders (4 to 3998) the ternary
        # oracle's peak sits within 235 * order * eps of this one at worst
        # (2000 rings, -25 dB), a quarter of the bound.
        order = max(2 * (rings - 1), 2)
        bound = 1024 * order * np.finfo(float).eps
        # dividing by the peak is correctly rounded, so the normalized scan
        # stays <= 1 exactly when the peak is >= the raw scan's maximum
        scan = np.linspace(0.0, 1.0, 8001)
        values = np.abs(t.sample_value(scan))
        assert values.max() <= 1.0
        i = int(np.argmax(values))
        dense = np.abs(t.sample_value(np.linspace(scan[i - 2], scan[i + 2], 20001)))
        assert dense.max() <= 1.0 + bound
        u_star = ternary_argmax(t.amplitude, scan[i - 1], scan[i + 1])
        assert abs(max(t.amplitude(u_star), values[i]) - 1.0) <= bound

    def test_peak_search_calls_the_beam_a_fixed_few_times(self, monkeypatch):
        # the scan plus 11 zoom rounds, each one call of two shifted beams;
        # polishing with two-point calls, as ternary_argmax does, makes 164
        calls = 0
        chebyshev = targets._chebyshev

        def counting(order, x):
            nonlocal calls
            calls += 1
            return chebyshev(order, x)

        monkeypatch.setattr(targets, "_chebyshev", counting)
        difference(-25.0, 11)
        assert calls <= 2 * (1 + 11)

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

    @pytest.mark.parametrize("case", range(len(NOTCH_CASES)))
    def test_windowed_notches_equal_whole_grid_reference(self, case):
        base, centers, depth, width = NOTCH_CASES[case]
        t = with_nulls(base, centers, depth, width)
        rng = np.random.default_rng(case)
        # each centre, the window edges and points just inside them
        steps = (-1.0, -0.99999, -0.999, -0.5, 0.0, 0.5, 0.999, 0.99999, 1.0)
        edges = [c + k * width for c in centers for k in steps]
        grids = [rng.uniform(-1.0, 1.0, n) for n in (1, 7, 1000, 4097)]
        grids += [np.array(edges), np.nextafter(edges, 2.0), np.nextafter(edges, -2.0),
                  _symmetric_grid(20001)]
        for u in grids:
            assert np.array_equal(t.amplitude(u), where_notched_amplitude(base, centers, depth,
                                                                          width, u))
        for u in edges + [0.0, -1.0, 1.0]:
            value = t.amplitude(u)
            assert isinstance(value, float)
            assert value == where_notched_amplitude(base, centers, depth, width, u)

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

    @pytest.mark.parametrize("header", [b"", b"u,amplitude\n", b"\nu,amplitude\n"])
    def test_byte_order_mark_keeps_every_point(self, tmp_path, header):
        # spreadsheet "CSV UTF-8" exports start the file with EF BB BF
        rows = header + b"-1.0,0.2\n0.0,1.0\n1.0,0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(rows)
        marked.write_bytes(b"\xef\xbb\xbf" + rows)
        points = load_table(marked).params["points"]
        assert len(points) == 3
        assert points == load_table(plain).params["points"]

    def test_rejects_missing_column(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("-1.0\n1.0\n", encoding="utf-8")
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(TableFormatError):
            load_table(tmp_path / "absent.csv")

    def test_rejects_non_utf8_file(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(TableFormatError, match="cannot read table file"):
            load_table(path)

    def test_rejects_second_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("\n\nu,amplitude\nu,amplitude\n0.0,1.0\n1.0,0.0\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=":4: non-numeric row"):
            load_table(path)

    def test_first_row_with_one_bad_column_is_not_a_header(self, tmp_path):
        # a typo in the first data row must not drop that row as a header
        path = tmp_path / "target.csv"
        path.write_text("0.0,abc\n0.5,1\n1.0,0.5\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=r":1: non-numeric row '0\.0,abc'"):
            load_table(path)

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

    @pytest.mark.parametrize(
        "order, span", [(1, 1e3), (2, 1e3), (7, 50.0), (8, 50.0), (99, 3.0), (3998, 1.0001)]
    )
    def test_chebyshev_equals_two_branch_form(self, order, span):
        # the cosh branch runs only where |x| > 1; it must give the bits of
        # evaluating both branches everywhere and picking one per element
        edges = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 0.0, span]
        x = np.concatenate([np.linspace(-span, span, 4001), edges, np.negative(edges)])
        ax = np.abs(x)
        inner = np.cos(order * np.arccos(np.clip(x, -1.0, 1.0)))
        outer = np.cosh(order * np.arccosh(np.maximum(ax, 1.0)))
        outer *= np.where(x < 0.0, (-1.0) ** order, 1.0)
        assert np.array_equal(_chebyshev(order, x), np.where(ax <= 1.0, inner, outer))

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
