"""Shared test fixtures."""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def pattern_oracle():
    """F(u) = I0 + sum_n I_n N_n J0(k r_n u) at each u, summed in mpmath.

    Independent of the package's J0: every term comes from ``mpmath.besselj``
    at 30 digits, and the sum is rounded to a complex double once.
    """
    mpmath = pytest.importorskip("mpmath")

    def evaluate(geom, w, u):
        values = []
        with mpmath.workdps(30):
            k = 2 * mpmath.pi / mpmath.mpf(geom.wavelength)
            for x in np.atleast_1d(np.asarray(u, dtype=float)).tolist():
                total = mpmath.mpc(w.center) if geom.has_center_element else mpmath.mpc(0)
                for weight, count, radius in zip(w.rings, geom.elements_per_ring, geom.radii):
                    total += mpmath.mpc(weight) * count * mpmath.besselj(0, k * radius * x)
                values.append(complex(total))
        return np.array(values)

    return evaluate
