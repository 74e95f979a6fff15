"""Sample placement and minimum sample counts.

The pattern is even in u, so samples live on [0, 1] only: mirroring them
would duplicate equations without adding information.  Abscissas sit at
midpoints u_m = (m - 1/2) / M0, which avoids the degenerate u = 0 row and
interleaves the recursive stage's samples halfway between the batch ones.
The batch portion is the 1st, 3rd, 5th, ... midpoint (even indices, counted
from zero); the remaining interleaved points feed the recursive refinement.

Sample sizing has one rule, :func:`effective_total_count`, built on the
paper's batch minimum :func:`min_batch_samples`; it sizes every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .geometry import RingGeometry, _require_real
from .targets import TargetPattern


@dataclass(frozen=True)
class SampleSet:
    """Ordered target samples split into batch and incremental portions.

    Abscissas and values are read-only 1-D float arrays of one length;
    complex input raises :class:`DomainError`.  The split is fixed: even
    indices (counted from zero) form the batch, odd indices the incremental
    portion.
    """

    abscissas: NDArray[np.float64]
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        _require_real(self.abscissas, "abscissas")
        _require_real(self.values, "sample values")
        u = np.array(self.abscissas, dtype=float)
        v = np.array(self.values, dtype=float)
        if u.ndim != 1 or u.shape != v.shape:
            raise DomainError(
                f"abscissas {u.shape} and values {v.shape} must be 1-D and of one length"
            )
        if not (np.all(np.isfinite(u)) and np.all(u[1:] > u[:-1])):
            raise DomainError("abscissas must be finite and strictly increasing")
        if not np.all(np.isfinite(v)):
            raise DomainError("sample values must be finite")
        u.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "abscissas", u)
        object.__setattr__(self, "values", v)

    @property
    def total_count(self) -> int:
        return len(self.abscissas)

    @property
    def batch_count(self) -> int:
        return (len(self.abscissas) + 1) // 2


def min_batch_samples(geom: RingGeometry) -> int:
    """Smallest first-stage sample count for a geometry.

    ceil(4 * (N_r - 1) * max adjacent ring spacing / wavelength), floored at
    N_r + 1 so the linear system cannot be underdetermined, and at the
    aperture's Nyquist count ceil(2 * r_max / wavelength) + 1: F(u) is
    bandlimited to k * r_max, so samples on [0, 1] must sit at most
    wavelength / (2 * r_max) apart.  Single-ring layouts have no ring spacing
    and use the floors alone.
    """
    r_max = geom.radii[-1] if geom.radii else 0.0
    floor = max(geom.n_rings, math.ceil(2.0 * r_max / geom.wavelength)) + 1
    if geom.n_rings < 2:
        return floor
    spacing = max(b - a for a, b in zip(geom.radii, geom.radii[1:]))
    raw = math.ceil(4.0 * (geom.n_rings - 1) * spacing / geom.wavelength)
    return max(raw, floor)


def midpoint_abscissas(count: int) -> NDArray[np.float64]:
    """Midpoint grid u_m = (m - 1/2) / count for m = 1..count."""
    if count < 1:
        raise DomainError(f"need at least one sample, got {count}")
    return (np.arange(count) + 0.5) / count


def effective_total_count(geom: RingGeometry, oversample: float = 1.0) -> int:
    """Total sample count the pipeline uses: the one sample-sizing rule.

    Twice :func:`min_batch_samples`, one batch and one incremental sample
    each, scaled by ``oversample`` and rounded up to even, except when that
    would leave the batch stage square or underdetermined, in which case the
    batch is grown two rows past the weight count.  :func:`build_sample_set`
    called without ``total_count`` sizes through here, at ``oversample`` 1.
    """
    if not (math.isfinite(oversample) and oversample >= 1.0):
        raise DomainError(f"oversample factor must be >= 1, got {oversample!r}")
    total = math.ceil(2 * min_batch_samples(geom) * oversample)
    total += total % 2
    if total // 2 <= geom.column_count:
        total = 2 * (geom.column_count + 2)
    return total


def build_sample_set(
    geom: RingGeometry,
    target: TargetPattern,
    total_count: int | None = None,
) -> SampleSet:
    """Sample a target on the midpoint grid sized for the geometry.

    Without ``total_count`` the grid holds :func:`effective_total_count`
    samples; ``total_count`` overrides the sizing and must be even.
    """
    total = effective_total_count(geom) if total_count is None else int(total_count)
    if total < 2 or total % 2:
        raise DomainError(f"total_count must be even and >= 2, got {total_count}")
    abscissas = midpoint_abscissas(total)
    return SampleSet(abscissas=abscissas, values=target.sample_value(abscissas))

