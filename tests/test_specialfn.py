"""Bessel J0 contracts."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringsynth.errors import DomainError
from ringsynth.specialfn import (
    _BLOCK,
    _HANKEL_G,
    _HANKEL_M,
    _SERIES_R,
    _j0_hankel,
    _j0_series,
    _polevl,
    bessel_j0_grid,
    j0_hankel_columns,
)


def j0_mpmath(xs) -> np.ndarray:
    """J0 at each point, from 30-digit mpmath rounded once to double."""
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(0, mpmath.mpf(float(x)))) for x in xs])


def j0_series_oracle(x: float, terms: int = 60) -> float:
    """Independent power-series evaluation, summed term by term."""
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= -q / (k * k)
        total += term
    return total


class TestBesselJ0:
    def test_zero(self):
        assert bessel_j0_grid(0.0) == 1.0

    def test_even_symmetry_exact(self):
        assert bessel_j0_grid(1.5) == bessel_j0_grid(-1.5)

    def test_first_root(self):
        # locate the first root by bisection on the series oracle
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if j0_series_oracle(lo) * j0_series_oracle(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j0_grid(2.404825557695773)) <= 1e-9

    def test_series_oracle_agreement_on_dense_grid(self):
        xs = np.linspace(0.0, 12.0, 1000)
        oracle = np.array([j0_series_oracle(float(x)) for x in xs])
        assert np.max(np.abs(bessel_j0_grid(xs) - oracle)) <= 1e-10

    def test_large_argument_against_mpmath(self):
        # the 500-ring large-array design reaches k * r_max ~ 1571
        rng = np.random.default_rng(7)
        xs = np.concatenate([np.linspace(0.1, 2000.0, 400), rng.uniform(-2000, 2000, 200)])
        assert np.max(np.abs(bessel_j0_grid(xs) - j0_mpmath(xs))) <= 1e-14

    def test_seam_against_mpmath(self):
        xs = np.array([np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)])
        values = bessel_j0_grid(xs)
        assert np.max(np.abs(values - j0_mpmath(xs))) <= 1e-15
        # one ulp of x moves J0 by ~4e-16 here; the branches meet without a step
        assert np.max(np.abs(np.diff(values))) <= 1e-15

    def test_branch_switchover_consistency(self):
        xs = np.linspace(7.9, 8.1, 41)
        oracle = [j0_series_oracle(float(x)) for x in xs]
        assert bessel_j0_grid(xs) == pytest.approx(oracle, abs=1e-11)

    @given(st.floats(min_value=-500.0, max_value=500.0))
    def test_even_and_bounded(self, x):
        value = bessel_j0_grid(x)
        assert value == bessel_j0_grid(-x)
        assert abs(value) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            bessel_j0_grid(bad)

    def test_grid_rejects_non_finite(self):
        with pytest.raises(DomainError):
            bessel_j0_grid(np.array([1.0, math.nan]))


class TestKernelCoefficients:
    """Each branch and each fitted table against mpmath over its own interval."""

    # Chebyshev nodes on t in (-1, 1): dense at both ends, x = infinity excluded
    T = np.cos(np.pi * (np.arange(600) + 0.5) / 600)

    def test_series_branch(self):
        xs = np.linspace(0.0, 8.0, 2001)[:-1]
        assert np.max(np.abs(_j0_series(xs, np.empty_like(xs)) - j0_mpmath(xs))) <= 1e-15

    def test_hankel_branch_near_cutoff(self):
        # above x ~ 64 the rounding of the cosine's argument dominates; the
        # whole-range test covers it
        xs = np.linspace(8.0, 64.0, 2001)
        assert np.max(np.abs(_j0_hankel(xs, np.empty_like(xs)) - j0_mpmath(xs))) <= 1e-15

    def test_series_table(self):
        with mpmath.workdps(30):
            ref = []
            for t in self.T.tolist():
                xx = 32 * (mpmath.mpf(t) + 1)
                ref.append(float((1 - mpmath.besselj(0, mpmath.sqrt(xx))) / xx))
        fit = _polevl(self.T, _SERIES_R, np.empty_like(self.T))
        assert np.max(np.abs(fit - ref)) <= 6e-17

    def test_hankel_tables(self):
        # m = sqrt(x) M0 and g = x (theta0 - x + pi/4), with J0 = M0 cos(theta0),
        # tabled in s = 1/x^2 = (t + 1)/128
        s = (self.T + 1.0) / 128.0
        ref = []
        with mpmath.workdps(30):
            for s_j in s.tolist():
                x = 1 / mpmath.sqrt(mpmath.mpf(s_j))
                j, y = mpmath.besselj(0, x), mpmath.bessely(0, x)
                theta = mpmath.atan2(y, j)
                theta += 2 * mpmath.pi * mpmath.nint((x - mpmath.pi / 4 - theta) / (2 * mpmath.pi))
                ref.append((float(mpmath.sqrt(x * (j * j + y * y))),
                            float(x * (theta - x + mpmath.pi / 4))))
        m_ref, g_ref = np.array(ref).T
        assert np.max(np.abs(_polevl(s, _HANKEL_M, np.empty_like(s)) - m_ref)) <= 2.5e-16
        # a phase error of g's size over x >= 8 stays below 2e-16
        assert np.max(np.abs(_polevl(s, _HANKEL_G, np.empty_like(s)) - g_ref)) <= 1.5e-15


class TestBlockedGrid:
    """bessel_j0_grid walks its argument in blocks; no boundary may show."""

    @pytest.fixture(scope="class")
    def pool(self):
        # series-range and Hankel-range values, the switchover and zero included,
        # each with its per-element reference
        rng = np.random.default_rng(5)
        values = np.concatenate([
            [0.0, -0.0, 8.0, -8.0, np.nextafter(8.0, 0.0), 600.0],
            rng.uniform(-8.0, 8.0, 250),
            rng.choice([-1.0, 1.0], 250) * rng.uniform(8.0, 600.0, 250),
        ])
        return values, np.array([bessel_j0_grid(v) for v in values])

    @pytest.mark.parametrize("length", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_shuffled_branches_match_scalar(self, pool, length):
        values, ref = pool
        idx = np.random.default_rng(length).integers(0, len(values), length)
        assert np.array_equal(bessel_j0_grid(values[idx]), ref[idx])

    def test_single_branch_blocks_match_scalar(self, pool):
        values, ref = pool
        series = np.flatnonzero(np.abs(values) < 8.0)
        hankel = np.flatnonzero(np.abs(values) >= 8.0)
        rng = np.random.default_rng(6)
        # one all-series block, one all-Hankel block, then a mixed tail
        idx = np.concatenate([
            rng.choice(series, _BLOCK), rng.choice(hankel, _BLOCK), [series[0], hankel[0]]
        ])
        assert np.array_equal(bessel_j0_grid(values[idx]), ref[idx])

    def test_shapes_match_scalar(self, pool):
        values, ref = pool
        idx = np.random.default_rng(7).integers(0, len(values), (256, 2 * _BLOCK // 256))
        assert np.array_equal(bessel_j0_grid(values[idx]), ref[idx])
        assert np.array_equal(bessel_j0_grid(values[idx].T), ref[idx].T)
        zero_d = bessel_j0_grid(np.float64(values[-1]))
        assert zero_d.shape == () and zero_d == ref[-1]

    def test_empty_argument_keeps_its_shape(self):
        assert bessel_j0_grid(np.empty((0, 3))).shape == (0, 3)

    def test_non_finite_in_a_later_block_rejected(self):
        x = np.ones(2 * _BLOCK + 1)
        x[-1] = math.inf
        with pytest.raises(DomainError):
            bessel_j0_grid(x)

    def test_returns_a_new_array_and_leaves_its_argument(self, pool):
        values, ref = pool
        idx = np.random.default_rng(9).integers(0, len(values), (3, _BLOCK + 7))
        x = values[idx]
        before = x.copy()
        result = bessel_j0_grid(x)
        assert not np.shares_memory(result, x)
        assert np.array_equal(result, ref[idx])
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))

    def test_peak_memory_stays_near_output_size(self):
        # a 2001 x 500 cut argument; full-size temporaries would peak near 10x
        x = np.random.default_rng(8).uniform(-300.0, 300.0, (2001, 500))
        tracemalloc.start()
        try:
            bessel_j0_grid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.nbytes



class TestHankelColumns:
    """J0 over the Hankel column suffix of a rank-one panel x = u (x) w."""

    def test_against_mpmath(self):
        # shuffled rows of either sign; every x lies in [8.5, 2000]
        u = np.random.default_rng(11).permutation(np.linspace(0.3, 1.0, 15) * np.tile([1, -1], 8)[:15])
        x = np.multiply.outer(u, np.geomspace(8.5 / 0.3, 2000.0, 12))
        expected = j0_mpmath(x.ravel()).reshape(x.shape)
        assert j0_hankel_columns(u, x) == 0
        assert np.max(np.abs(x - expected)) <= 1e-14

    def test_only_the_suffix_is_written(self):
        u = np.array([0.5, -0.25, 1.0])
        x = np.multiply.outer(u, np.array([0.0, 10.0, 31.9, 32.0, 40.0, 500.0]))
        before = x.copy()
        # the smallest |x| of a column sits in the row of min |u|: 0.25 * 32 = 8
        assert j0_hankel_columns(u, x) == 3
        assert np.array_equal(x[:, :3], before[:, :3])
        assert np.max(np.abs(x[:, 3:] - bessel_j0_grid(before[:, 3:]))) <= 1e-15

    @pytest.mark.parametrize("u", [[0.5, 0.0, 1.0], [0.5, -0.0], [1e-3, 2e-3]])
    def test_no_suffix_leaves_the_panel(self, u):
        u = np.array(u)
        x = np.multiply.outer(u, np.array([1.0, 100.0, 1000.0]))
        before = x.copy()
        assert j0_hankel_columns(u, x) == 3
        assert np.array_equal(x, before)

    def test_non_finite_suffix_rejected(self):
        u = np.array([0.5, 1.0])
        x = np.multiply.outer(u, np.array([20.0, 1e308]))
        x[1, 1] = math.inf
        with pytest.raises(DomainError):
            j0_hankel_columns(u, x)
