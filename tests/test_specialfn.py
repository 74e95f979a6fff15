"""Bessel J0 contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringsynth.errors import DomainError
from ringsynth.specialfn import _BLOCK, bessel_j0, bessel_j0_grid


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
        assert bessel_j0(0.0) == 1.0

    def test_even_symmetry_exact(self):
        assert bessel_j0(1.5) == bessel_j0(-1.5)

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
        assert abs(bessel_j0(2.404825557695773)) <= 1e-9

    def test_series_oracle_agreement_on_dense_grid(self):
        xs = np.linspace(0.0, 12.0, 1000)
        oracle = np.array([j0_series_oracle(float(x)) for x in xs])
        assert np.max(np.abs(bessel_j0_grid(xs) - oracle)) <= 1e-10

    def test_large_argument_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        xs = np.concatenate([np.linspace(0.1, 500.0, 200), rng.uniform(0, 500, 100)])
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(0, mpmath.mpf(float(x)))) for x in xs])
        assert np.max(np.abs(bessel_j0_grid(xs) - ref)) <= 1e-10

    def test_branch_switchover_consistency(self):
        xs = np.linspace(7.9, 8.1, 41)
        oracle = [j0_series_oracle(float(x)) for x in xs]
        assert bessel_j0_grid(xs) == pytest.approx(oracle, abs=1e-11)

    @given(st.floats(min_value=-500.0, max_value=500.0))
    def test_even_and_bounded(self, x):
        value = bessel_j0(x)
        assert value == bessel_j0(-x)
        assert abs(value) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            bessel_j0(bad)

    def test_grid_rejects_non_finite(self):
        with pytest.raises(DomainError):
            bessel_j0_grid(np.array([1.0, math.nan]))


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
        return values, np.array([bessel_j0(float(v)) for v in values])

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

    def test_non_finite_in_a_later_block_rejected(self):
        x = np.ones(2 * _BLOCK + 1)
        x[-1] = math.inf
        with pytest.raises(DomainError):
            bessel_j0_grid(x)

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

