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

FLAT_TOP = "flat_top"
EQUI_RIPPLE = "equi_ripple"
DIFFERENCE = "difference"
TABULATED = "tabulated"

_SLL_MIN = -80.0
_SLL_MAX = -3.0

Evaluator = Callable[[NDArray[np.float64]], NDArray[np.float64]]


def _evaluate(fn: Evaluator, u: ArrayLike) -> NDArray[np.float64] | np.float64:
    """Run an evaluator on u flattened to 1-D; a scalar u gives a scalar back."""
    u = np.asarray(u, dtype=float)
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
    """T_order(x): cos(n acos x) inside [-1, 1], +/-cosh(n acosh |x|) outside."""
    ax = np.abs(x)
    inner = np.cos(order * np.arccos(np.clip(x, -1.0, 1.0)))
    outer = np.cosh(order * np.arccosh(np.maximum(ax, 1.0)))
    outer *= np.where(x < 0.0, (-1.0) ** order, 1.0)
    return np.where(ax <= 1.0, inner, outer)


def _pencil(order: int, ratio: float) -> tuple[float, Evaluator]:
    """Dolph-Chebyshev pencil beam T_order(x0 cos(pi u / 2)) / ratio.

    ``ratio`` is the main-lobe to sidelobe amplitude ratio.  Returns the
    scale point x0, which places the beam's zeros, and the signed beam.
    """
    x0 = math.cosh(math.acosh(ratio) / order)

    def beam(u: NDArray[np.float64]) -> NDArray[np.float64]:
        return _chebyshev(order, x0 * np.cos(np.pi * u / 2.0)) / ratio

    return x0, beam


def _first_null(order: int, x0: float) -> float:
    """u location of the innermost pattern zero of the pencil beam."""
    return (2.0 / math.pi) * math.acos(math.cos(math.pi / (2.0 * order)) / x0)


def _check_sll(sll_db: float) -> float:
    sll_db = float(sll_db)
    if not (math.isfinite(sll_db) and _SLL_MIN <= sll_db <= _SLL_MAX):
        raise DomainError(
            f"sidelobe level must lie in [{_SLL_MIN:g}, {_SLL_MAX:g}] dB, got {sll_db!r}"
        )
    return sll_db


def flat_top(passband_edge: float, transition_width: float = 0.0) -> TargetPattern:
    """Unit passband for |u| <= edge with a raised-cosine rolloff beyond it."""
    edge = float(passband_edge)
    width = float(transition_width)
    if not (math.isfinite(edge) and 0.0 < edge < 1.0):
        raise DomainError(f"passband edge must lie in (0, 1), got {edge!r}")
    if not (math.isfinite(width) and width >= 0.0):
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
    sll_db = _check_sll(sll_db)
    if aperture_rings < 1:
        raise DomainError(f"aperture_rings must be >= 1, got {aperture_rings}")
    # The order matches a half-wavelength-sampled line source spanning the
    # ring aperture (2*n - 1 elements across the diameter).  The odd order
    # also zeroes the shape at |u| = 1, which the ring basis reproduces far
    # more accurately than a ripple peak pinned at the edge of visible space.
    order = max(2 * int(aperture_rings) - 1, 1)
    x0, signed = _pencil(order, 10.0 ** (-sll_db / 20.0))

    params = {
        "sll_db": sll_db,
        "aperture_rings": int(aperture_rings),
        "main_lobe_edge": _first_null(order, x0),
    }
    return TargetPattern(kind=EQUI_RIPPLE, params=params, evaluator=signed)


def _refined_peak(fn: Evaluator, lo: float, hi: float, points: int) -> float:
    """Grid scan followed by a ternary polish; returns the peak of |fn|."""
    grid = np.linspace(lo, hi, points)
    values = np.abs(fn(grid))
    idx = int(np.argmax(values))
    a = grid[max(idx - 1, 0)]
    b = grid[min(idx + 1, points - 1)]
    for _ in range(80):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        v1, v2 = np.abs(fn(np.array([m1, m2])))
        if v1 < v2:
            a = m1
        else:
            b = m2
    u_star = 0.5 * (a + b)
    return max(float(np.abs(fn(np.array([u_star])))[0]), float(values[idx]))


def difference(sll_db: float, aperture_rings: int) -> TargetPattern:
    """Twin-lobe difference beam: exact null at u = 0, sidelobes near sll_db.

    Built as the difference of two pencil beams displaced by one first-null
    distance.  The component order is even so the two shifted copies cancel
    exactly at |u| = 1.  The beams are designed 10 dB below the requested
    level, a margin that keeps the normalized shape's sidelobes at or below
    it from -80 to -3 dB (the test suite sweeps that range).
    """
    sll_db = _check_sll(sll_db)
    if aperture_rings < 1:
        raise DomainError(f"aperture_rings must be >= 1, got {aperture_rings}")
    order = max(2 * (int(aperture_rings) - 1), 2)
    x0, beam = _pencil(order, 10.0 ** ((-sll_db + 10.0) / 20.0))
    shift = _first_null(order, x0)

    def raw(u: NDArray[np.float64]) -> NDArray[np.float64]:
        return beam(u - shift) - beam(u + shift)

    peak = _refined_peak(raw, 0.0, 1.0, 8001)

    def signed(u: NDArray[np.float64]) -> NDArray[np.float64]:
        return raw(u) / peak

    params = {
        "sll_db": sll_db,
        "aperture_rings": int(aperture_rings),
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
    centers = [float(c) for c in null_centers]
    if not centers:
        return base
    depth_db = float(null_depth_db)
    width = float(null_width)
    if not (math.isfinite(width) and width > 0.0):
        raise DomainError(f"null width must be positive, got {null_width!r}")
    if not math.isfinite(depth_db) or depth_db >= 0.0:
        raise DomainError(f"null depth must be negative dB, got {null_depth_db!r}")
    for c in centers:
        if not (math.isfinite(c) and -1.0 < c < 1.0):
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
        for c in centers:
            t = (u - c) / width
            dip = 1.0 - (1.0 - depth_lin) * 0.5 * (1.0 + np.cos(np.pi * t))
            factor = np.where(np.abs(t) < 1.0, factor * dip, factor)
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
    try:
        points = [(float(u), float(v)) for u, v in samples]
    except OverflowError:
        raise TableFormatError("table entry beyond the float range") from None
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


def load_table(path: str | Path) -> TargetPattern:
    """Read a two-column comma-separated (u, amplitude) file.

    A single non-numeric header line is tolerated; blank lines are skipped.
    """
    path = Path(path)
    rows: list[tuple[float, float]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TableFormatError(f"cannot read table file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise TableFormatError(
                f"{path}:{lineno}: expected two comma-separated columns, got {line!r}"
            )
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if lineno == 1:
                continue  # header line
            raise TableFormatError(f"{path}:{lineno}: non-numeric row {line!r}") from None
    return from_table(rows)
