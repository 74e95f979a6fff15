"""Bessel J0 and sampling-kernel contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsynth.errors import DomainError
from ringsynth.specialfn import KernelOrder, bessel_j0, bessel_j0_grid, sampling_kernel

TWO_PI = 2.0 * math.pi


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
        mpmath.mp.dps = 30
        rng = np.random.default_rng(7)
        xs = np.concatenate([np.linspace(0.1, 500.0, 200), rng.uniform(0, 500, 100)])
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


class TestSamplingKernel:
    def test_limit_at_zero(self):
        assert sampling_kernel(0.0, KernelOrder(16)) == 1.0

    def test_cardinal_zeros_even_order(self):
        m = 16
        for j in range(1, m):
            assert abs(sampling_kernel(TWO_PI * j / m, m)) <= 1e-12

    def test_cardinal_unit_at_period_multiples(self):
        m = 16
        for j in (0, m, 2 * m, -m):
            assert sampling_kernel(TWO_PI * j / m, m) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        # sin(pi/2) / (16 sin(pi/32)), evaluated with 40-digit arithmetic
        assert sampling_kernel(math.pi / 16, 16) == pytest.approx(
            0.63764357733614548226, abs=1e-14
        )

    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_periodicity(self, psi, m):
        assert sampling_kernel(psi + TWO_PI, m) == pytest.approx(
            sampling_kernel(psi, m), abs=1e-12
        )

    def test_odd_order_cardinality(self):
        m = 15
        for j in range(1, m):
            assert abs(sampling_kernel(TWO_PI * j / m, m)) <= 1e-12

    def test_order_validation(self):
        with pytest.raises(DomainError):
            KernelOrder(0)
        with pytest.raises(DomainError):
            sampling_kernel(0.1, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            sampling_kernel(math.nan, 8)
