"""Desired (target) far-field patterns.

A target is one evaluator over u in [-1, 1], peak-normalized to 1.  The
sampling stage fits its values as they are (:meth:`TargetPattern.sample_value`);
callers that only care about the shape take their magnitude
(:meth:`TargetPattern.amplitude`).  Generators whose shape changes sign (the
pencil and difference beams, tables) keep the sign: fitting a smooth signed
oscillation is far better conditioned than fitting its rectified magnitude,
whose kinks at the zero crossings are not bandlimited.

Evaluators are array-native: each takes a 1-D float array of u values and
returns the pattern values as an array of the same length, so a whole grid
is one call.  The two methods accept a float or an array of any shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError, TableFormatError
from .geometry import _real, _real_array, _whole

FLAT_TOP = "flat_top"
EQUI_RIPPLE = "equi_ripple"
DIFFERENCE = "difference"
TABULATED = "tabulated"

_SLL_MIN = -80.0
_SLL_MAX = -3.0

Evaluator = Callable[[NDArray[np.float64]], NDArray[np.float64]]


def _evaluate(fn: Evaluator, u: ArrayLike) -> NDArray[np.float64] | np.float64:
    """Run an evaluator on u flattened to 1-D; a scalar u gives a scalar back."""
    u = _real_array(u, "target abscissas")
    return fn(u.ravel()).reshape(u.shape)[()]


@dataclass(frozen=True)
class TargetPattern:
    """An evaluable desired pattern plus the parameters that built it."""

    kind: str
    params: Mapping[str, object]
    evaluator: Evaluator

    def amplitude(self, u: ArrayLike) -> NDArray[np.float64] | np.float64:
        """Magnitude of the desired pattern at u (peak value 1)."""
        # Not via sample_value: the benchmark tracer counts each method's
        # calls, so one amplitude call must stay one evaluation.
        return np.abs(_evaluate(self.evaluator, u))

    def sample_value(self, u: ArrayLike) -> NDArray[np.float64] | np.float64:
        """Value fed to the linear solver: the evaluator's output, sign kept."""
        return _evaluate(self.evaluator, u)


def _chebyshev(order: int, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """T_order(x): cos(n acos x) inside [-1, 1], +/-cosh(n acosh |x|) only where |x| > 1."""
    out = np.cos(order * np.arccos(np.clip(x, -1.0, 1.0)))
    outside = np.abs(x) > 1.0
    if outside.any():
        xo = x[outside]
        sign = np.where(xo < 0.0, (-1.0) ** order, 1.0)
        out[outside] = np.cosh(order * np.arccosh(np.abs(xo))) * sign
    return out


def _pencil(order: int, ratio: float) -> tuple[float, Evaluator]:
    """Dolph-Chebyshev pencil beam T_order(x0 cos(pi u / 2)) / ratio.

    ``ratio`` is the main-lobe to sidelobe amplitude ratio.  Returns the
    scale point x0, which places the beam's zeros, and the signed beam.
    On the main lobe, where x > 1, acosh would magnify the rounding of x by
    1/sqrt(x^2 - 1) and the order again; there the beam forms
    h = (x - 1)/2 = sinh^2(a/2) - x0 sin^2(pi u/4), with a = acosh(x0),
    whose rounding does not grow with the order, and takes
    T_order(x) = cosh(2 order asinh(sqrt(h))).
    """
    a = math.acosh(ratio) / order
    x0 = math.cosh(a)
    half_rise = math.sinh(a / 2.0) ** 2  # (x0 - 1) / 2

    def beam(u: NDArray[np.float64]) -> NDArray[np.float64]:
        x = x0 * np.cos(np.pi * u / 2.0)
        lobe = x > 1.0
        out = _chebyshev(order, np.minimum(x, 1.0))  # its cosh branch stays off the lobe
        s = np.sin(np.pi / 4.0 * u[lobe])
        h = np.maximum(half_rise - x0 * s * s, 0.0)  # 0 where x rounded up past 1
        out[lobe] = np.cosh(2 * order * np.arcsinh(np.sqrt(h)))
        return out / ratio

    return x0, beam


def _first_null(order: int, x0: float) -> float:
    """u location of the innermost pattern zero of the pencil beam."""
    return (2.0 / math.pi) * math.acos(math.cos(math.pi / (2.0 * order)) / x0)


def _check_sll(sll_db: float, aperture_rings: int) -> tuple[float, int]:
    """The sidelobe level as a float and the aperture's ring count as an int, both checked."""
    sll_db = _real(sll_db, "sidelobe level")
    if not _SLL_MIN <= sll_db <= _SLL_MAX:
        raise DomainError(
            f"sidelobe level must lie in [{_SLL_MIN:g}, {_SLL_MAX:g}] dB, got {sll_db!r}"
        )
    rings = _whole(aperture_rings, "aperture_rings")
    if rings < 1:
        raise DomainError(f"aperture_rings must be >= 1, got {aperture_rings}")
    return sll_db, rings


def flat_top(passband_edge: float, transition_width: float = 0.0) -> TargetPattern:
    """Unit passband for |u| <= edge with a raised-cosine rolloff beyond it."""
    edge = _real(passband_edge, "passband edge")
    width = _real(transition_width, "transition width")
    if not 0.0 < edge < 1.0:
        raise DomainError(f"passband edge must lie in (0, 1), got {edge!r}")
    if not width >= 0.0:
        raise DomainError(f"transition width must be >= 0, got {width!r}")
    if edge + width > 1.0:
        raise DomainError(
            f"passband edge {edge:g} plus transition width {width:g} exceeds 1"
        )

    def evaluate(u: NDArray[np.float64]) -> NDArray[np.float64]:
        a = np.abs(u)
        out = np.where(a <= edge, 1.0, 0.0)
        ramp = (a > edge) & (a < edge + width)
        out[ramp] = 0.5 * (1.0 + np.cos(np.pi * (a[ramp] - edge) / width))
        return out

    params = {"passband_edge": edge, "transition_width": width}
    return TargetPattern(kind=FLAT_TOP, params=params, evaluator=evaluate)


def equi_ripple(sll_db: float, aperture_rings: int) -> TargetPattern:
    """Pencil beam with all sidelobes at a common level.

    The shape is a Chebyshev polynomial ridden along cos(pi*u/2); its order,
    2n - 1 for n rings, ties the main-lobe width to the aperture diameter of
    the ring layout the target is meant for.
    """
    sll_db, rings = _check_sll(sll_db, aperture_rings)
    # The order matches a half-wavelength-sampled line source spanning the
    # ring aperture (2*n - 1 elements across the diameter).  The odd order
    # also zeroes the shape at |u| = 1, which the ring basis reproduces far
    # more accurately than a ripple peak pinned at the edge of visible space.
    order = 2 * rings - 1
    x0, signed = _pencil(order, 10.0 ** (-sll_db / 20.0))

    params = {
        "sll_db": sll_db,
        "aperture_rings": rings,
        "main_lobe_edge": _first_null(order, x0),
    }
    return TargetPattern(kind=EQUI_RIPPLE, params=params, evaluator=signed)


def _refined_peak(fn: Evaluator, lo: float, hi: float, points: int) -> float:
    """Largest |fn| seen in a grid scan, then in 11 zoom rounds about the best point.

    Each round is one call over 33 points spanning the two steps around the
    best point, shrinking the step 16x (1/8000 to 7e-18).  The peak is never
    below the scan's maximum and is good to fn's own evaluation noise there.
    """
    grid = np.linspace(lo, hi, points)
    step = (hi - lo) / (points - 1)
    peak = 0.0
    for _ in range(12):
        values = np.abs(fn(grid))
        idx = int(np.argmax(values))
        peak = max(peak, float(values[idx]))
        grid = np.clip(grid[idx] + step * np.linspace(-1.0, 1.0, 33), lo, hi)
        step /= 16.0
    return peak


def difference(sll_db: float, aperture_rings: int) -> TargetPattern:
    """Twin-lobe difference beam: exact null at u = 0, sidelobes near sll_db.

    Built as the difference of two pencil beams displaced by one first-null
    distance.  The component order is even so the two shifted copies cancel
    exactly at |u| = 1.  The beams are designed 10 dB below the requested
    level, a margin that keeps the normalized shape's sidelobes at or below
    it from -80 to -3 dB (the test suite sweeps that range).
    """
    sll_db, rings = _check_sll(sll_db, aperture_rings)
    order = max(2 * (rings - 1), 2)
    x0, beam = _pencil(order, 10.0 ** ((-sll_db + 10.0) / 20.0))
    shift = _first_null(order, x0)

    def raw(u: NDArray[np.float64]) -> NDArray[np.float64]:
        return beam(u - shift) - beam(u + shift)

    peak = _refined_peak(raw, 0.0, 1.0, 8001)

    def signed(u: NDArray[np.float64]) -> NDArray[np.float64]:
        return raw(u) / peak

    params = {
        "sll_db": sll_db,
        "aperture_rings": rings,
        "lobe_shift": shift,
        "main_lobe_edge": 2.0 * shift + _first_null(order, x0),
    }
    return TargetPattern(kind=DIFFERENCE, params=params, evaluator=signed)


def with_nulls(
    base: TargetPattern,
    null_centers: Sequence[float],
    null_depth_db: float,
    null_width: float,
) -> TargetPattern:
    """Multiply smooth notches into a target's amplitude.

    Each notch is a raised-cosine dip of half-width ``null_width`` reaching
    the factor 10^(depth/20) at its center and exactly 1 outside its support,
    so the base is untouched away from the requested centers.
    """
    centers = _real_array(null_centers, "null centers", 1).tolist()
    if not centers:
        return base
    depth_db = _real(null_depth_db, "null depth")
    width = _real(null_width, "null width")
    if not width > 0.0:
        raise DomainError(f"null width must be positive, got {null_width!r}")
    if depth_db >= 0.0:
        raise DomainError(f"null depth must be negative dB, got {null_depth_db!r}")
    for c in centers:
        if not -1.0 < c < 1.0:
            raise DomainError(f"null centers must lie inside (-1, 1), got {c!r}")
    base_sll = base.params.get("sll_db")
    if base_sll is not None and depth_db >= float(base_sll):  # type: ignore[arg-type]
        raise DomainError(
            f"null depth {depth_db:g} dB must be below the base sidelobe level {base_sll:g} dB"
        )
    ordered = sorted(centers)
    for left, right in zip(ordered, ordered[1:]):
        if right - left < 2.0 * width:
            raise DomainError(
                f"notches at u={left:g} and u={right:g} overlap for half-width {width:g}"
            )

    depth_lin = 10.0 ** (depth_db / 20.0)

    def notch_factor(u: NDArray[np.float64]) -> NDArray[np.float64]:
        factor = np.ones_like(u)
        for c in centers:  # the cosine only where the dip is in force
            t = (u - c) / width
            inside = np.abs(t) < 1.0
            factor[inside] *= 1.0 - (1.0 - depth_lin) * 0.5 * (1.0 + np.cos(np.pi * t[inside]))
        return factor

    # The notches multiply the rectified base: notching the signed base
    # instead left example-d's nulls at only -27.4 and -25.5 dB, against
    # -45.0 and -37.3 dB rectified.
    def evaluate(u: NDArray[np.float64], _base=base.evaluator) -> NDArray[np.float64]:
        return np.abs(_base(u)) * notch_factor(u)

    params = dict(base.params)
    params.update(
        {
            "null_centers": tuple(centers),
            "null_depth_db": depth_db,
            "null_width": width,
        }
    )
    return TargetPattern(kind=f"{base.kind}_with_nulls", params=params, evaluator=evaluate)


def from_table(samples: Sequence[tuple[float, float]]) -> TargetPattern:
    """Piecewise-linear target through (u, amplitude) points.

    Points must be strictly increasing in u within [-1, 1]; the ends continue
    at their boundary values and the whole table is normalized by its largest
    magnitude.
    """
    points = [(u, v) for u, v in _real_array(samples, "table entry", finite=False).tolist()]
    if len(points) < 2:
        raise TableFormatError(f"need at least 2 table points, got {len(points)}")
    us = [p[0] for p in points]
    vs = [p[1] for p in points]
    for u, v in points:
        if not (math.isfinite(u) and math.isfinite(v)):
            raise TableFormatError(f"non-finite table entry ({u!r}, {v!r})")
        if not -1.0 <= u <= 1.0:
            raise TableFormatError(f"table abscissa {u!r} outside [-1, 1]")
    for left, right in zip(us, us[1:]):
        if right <= left:
            raise TableFormatError(
                f"table abscissas must be strictly increasing, got {left!r} then {right!r}"
            )
    peak = max(abs(v) for v in vs)
    if peak == 0.0:
        raise TableFormatError("table values are all zero")
    u_arr = np.array(us)
    v_arr = np.array(vs) / peak

    def signed(u: NDArray[np.float64]) -> NDArray[np.float64]:
        return np.interp(u, u_arr, v_arr)

    params = {"points": tuple((u, v) for u, v in points)}
    return TargetPattern(kind=TABULATED, params=params, evaluator=signed)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def load_table(path: str | Path) -> TargetPattern:
    """Read a two-column comma-separated (u, amplitude) file.

    The first non-blank line is a header, and is skipped, when neither of its
    columns is a number; blank lines are skipped.  A leading UTF-8 byte-order
    mark (as spreadsheet "CSV UTF-8" exports write) is dropped, so it cannot
    turn the first row into a header.
    """
    path = Path(path)
    rows: list[tuple[float, float]] = []
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise TableFormatError(f"cannot read table file {path}: {exc}") from exc
    lines = [(n, line.strip()) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    for index, (lineno, line) in enumerate(lines):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise TableFormatError(
                f"{path}:{lineno}: expected two comma-separated columns, got {line!r}"
            )
        u, amplitude = map(_number, parts)
        if u is not None and amplitude is not None:
            rows.append((u, amplitude))
        elif index > 0 or u is not None or amplitude is not None:
            raise TableFormatError(f"{path}:{lineno}: non-numeric row {line!r}")
    return from_table(rows)
