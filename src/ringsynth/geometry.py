"""Concentric ring array geometry and excitation weights.

A ring array is described by its wavelength, the ring radii, the number of
elements on each ring, and an optional center element.  All elements of a
ring share one excitation weight, so the far-field interference pattern in
the direction cosine u = sin(theta) reduces to

    F(u) = I0 + sum_n I_n * N_n * J0(k * r_n * u),      k = 2*pi / wavelength

which is azimuth independent and even in u.  Because J0(0) = 1, the center
term I0 is a ring of radius 0 with one element.  This module only describes
the array; ``ringsynth.solver._ring_block`` evaluates every term
N_n * J0(k * r_n * u), the center as the ring (0, 1), for the fit and for
every pattern the analysis stage draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _require_real(values: object, what: str) -> None:
    """Raise :class:`DomainError` for complex input, which a float cast would truncate."""
    if np.iscomplexobj(values):
        raise DomainError(f"{what} must be real, got complex values")


@dataclass(frozen=True)
class RingGeometry:
    """Immutable description of a concentric ring array.

    ``radii`` must be strictly increasing and positive; ``elements_per_ring``
    pairs with it one to one.  The wavenumber is always derived from the
    wavelength so the two can never disagree.
    """

    wavelength: float
    radii: tuple[float, ...]
    elements_per_ring: tuple[int, ...]
    has_center_element: bool = True

    def __post_init__(self) -> None:
        _require_real(self.wavelength, "wavelength")
        _require_real(self.radii, "radii")
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(
            self, "elements_per_ring", tuple(int(n) for n in self.elements_per_ring)
        )
        if not (math.isfinite(self.wavelength) and self.wavelength > 0):
            raise DomainError(f"wavelength must be positive, got {self.wavelength!r}")
        if not math.isfinite(self.wavenumber):
            raise DomainError(
                f"wavelength {self.wavelength!r} is too small: 2*pi/wavelength overflows"
            )
        if len(self.radii) != len(self.elements_per_ring):
            raise DomainError(
                f"{len(self.radii)} radii but {len(self.elements_per_ring)} element counts"
            )
        prev = 0.0
        for r in self.radii:
            if not (math.isfinite(r) and r > prev):
                raise DomainError(f"radii must be strictly increasing and positive, got {self.radii}")
            prev = r
        for n in self.elements_per_ring:
            if n < 1:
                raise DomainError(f"each ring needs at least one element, got {n}")

    @property
    def n_rings(self) -> int:
        return len(self.radii)

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def column_count(self) -> int:
        """Number of independent weights (rings plus optional center)."""
        return self.n_rings + (1 if self.has_center_element else 0)


@dataclass(frozen=True)
class Weights:
    """Real excitation weights, per ring and for the center; complex ones raise DomainError."""

    center: float
    rings: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_real((self.center, *self.rings), "excitation weights")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "rings", tuple(float(w) for w in self.rings))


def elements_for_spacing(radius: float, target_spacing: float) -> int:
    """Element count that realizes roughly the requested arc spacing.

    Rounds the circumference over the spacing to the nearest integer,
    never returning less than one element.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be positive, got {radius!r}")
    if not (math.isfinite(target_spacing) and target_spacing > 0):
        raise DomainError(f"target spacing must be positive, got {target_spacing!r}")
    ratio = 2.0 * math.pi * radius / target_spacing
    if not math.isfinite(ratio):
        raise DomainError(
            f"radius {radius!r} over spacing {target_spacing!r} is beyond the float range"
        )
    count = int(math.floor(ratio + 0.5))
    return max(count, 1)


def uniform_half_wavelength_geometry(n_rings: int, wavelength: float = 1.0) -> RingGeometry:
    """Ring layout with radii n*lambda/2 and half-wavelength arc spacing.

    The element counts follow the spacing rule, which for these radii is
    round(2*pi*n), and a center element is included.
    """
    if n_rings < 1:
        raise DomainError(f"need at least one ring, got {n_rings}")
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise DomainError(f"wavelength must be positive, got {wavelength!r}")
    radii = tuple(n * wavelength / 2.0 for n in range(1, n_rings + 1))
    spacing = wavelength / 2.0
    counts = tuple(elements_for_spacing(r, spacing) for r in radii)
    return RingGeometry(
        wavelength=wavelength,
        radii=radii,
        elements_per_ring=counts,
        has_center_element=True,
    )
