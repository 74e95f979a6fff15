"""Concentric ring array geometry and excitation weights.

A ring array is described by its wavelength, the ring radii, the number of
elements on each ring, and an optional center element.  All elements of a
ring share one excitation weight, so the far-field interference pattern in
the direction cosine u = sin(theta) reduces to

    F(u) = I0 + sum_n I_n * N_n * J0(k * r_n * u),      k = 2*pi / wavelength

which is azimuth independent and even in u.  That is the continuous-ring
model, which the fit, every reported figure and surface.csv describe: a ring
of N_n discrete elements, the first at phi = 0, adds the Jacobi-Anger terms
2 I_n N_n sum_{q>=1} i^(q N_n) J_{q N_n}(k r_n u) cos(q N_n phi) (Abramowitz
and Stegun 9.1.41-45), small while k r_n u stays well below N_n.  Because
J0(0) = 1, the center term I0 is a ring of radius 0 with one element.  This
module only describes the array; ``ringsynth.solver._ring_block`` evaluates
every term N_n * J0(k * r_n * u), the center as the ring (0, 1), for the fit
and for every pattern the analysis stage draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError


def _real_array(
    values: object, what: str, ndim: int | None = None, finite: bool = True
) -> NDArray[np.float64]:
    """``values`` as a float array, uncopied if it is one; else DomainError naming ``what``.

    Complex values, values numpy cannot read as floats, a rank other than
    ``ndim`` (when given) and, unless ``finite`` is False, NaN and inf raise.
    """
    try:
        array = np.asarray(values)
        if not np.iscomplexobj(array):  # a complex one stays, and raises below
            array = array.astype(float, copy=False)
    except OverflowError:  # an int beyond the float range
        raise DomainError(f"{what} beyond the float range") from None
    except (TypeError, ValueError):  # a ragged sequence, or no numbers
        raise DomainError(f"{what} cannot be read as floats") from None
    if array.dtype != np.float64:
        raise DomainError(f"{what} must be real, got complex values")
    if ndim is not None and array.ndim != ndim:
        raise DomainError(f"{what} must be {ndim}-D, got shape {array.shape}")
    if finite and not np.isfinite(array).all():
        raise DomainError(f"{what} must be finite")
    return array


def _real(value: object, what: str) -> float:
    """``value`` as a finite float, read by :func:`_real_array` as a 0-D array."""
    try:  # a finite Python int or float skips the array cast
        if isinstance(value, (int, float)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range, which the reader names
        pass
    return float(_real_array(value, what, 0))


def _whole(value: object, what: str) -> int:
    """``value`` as an int; complex, non-finite or fractional input raises DomainError."""
    number = _real(value, what)
    if not number.is_integer():
        raise DomainError(f"{what} must be a whole number in the float range")
    return int(value) if isinstance(value, int) else int(number)


@dataclass(frozen=True)
class RingGeometry:
    """Immutable description of a concentric ring array.

    ``radii`` must be strictly increasing and positive; ``elements_per_ring``
    pairs with it one to one, in whole counts of at least one.  A layout needs
    a ring or a center element.  The wavenumber is always derived from the
    wavelength so the two can never disagree.
    """

    wavelength: float
    radii: tuple[float, ...]
    elements_per_ring: tuple[int, ...]
    has_center_element: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "wavelength", _real(self.wavelength, "wavelength"))
        object.__setattr__(self, "radii", tuple(_real_array(self.radii, "radii", 1).tolist()))
        counts = tuple(_whole(n, "each element count") for n in self.elements_per_ring)
        object.__setattr__(self, "elements_per_ring", counts)
        if not self.wavelength > 0:
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
            if not r > prev:
                raise DomainError(f"radii must be strictly increasing and positive, got {self.radii}")
            prev = r
        for n in self.elements_per_ring:
            if n < 1:
                raise DomainError(f"each ring needs at least one element, got {n}")
        if self.column_count == 0:
            raise DomainError("needs at least one ring or a center element")

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
    """Real, finite excitation weights, per ring and for the center; others raise DomainError."""

    center: float
    rings: tuple[float, ...]

    def __post_init__(self) -> None:
        values = _real_array((self.center, *self.rings), "excitation weights", 1)
        center, *rings = values.tolist()
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "rings", tuple(rings))


def elements_for_spacing(radius: float, target_spacing: float) -> int:
    """Element count that realizes roughly the requested arc spacing.

    Rounds the circumference over the spacing to the nearest integer,
    never returning less than one element.
    """
    radius, target_spacing = _real(radius, "radius"), _real(target_spacing, "target spacing")
    if not radius > 0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    if not target_spacing > 0:
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
    rings, wavelength = _whole(n_rings, "n_rings"), _real(wavelength, "wavelength")
    if rings < 1:
        raise DomainError(f"need at least one ring, got {n_rings}")
    if not wavelength > 0:
        raise DomainError(f"wavelength must be positive, got {wavelength!r}")
    radii = tuple(n * wavelength / 2.0 for n in range(1, rings + 1))
    spacing = wavelength / 2.0
    counts = tuple(elements_for_spacing(r, spacing) for r in radii)
    return RingGeometry(
        wavelength=wavelength,
        radii=radii,
        elements_per_ring=counts,
        has_center_element=True,
    )
