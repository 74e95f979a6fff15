"""Dense pattern cuts, dB conversion, and pattern quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegeneratePatternError, DomainError
from .geometry import RingGeometry, Weights
from .solver import _ring_block
# unused here; kept while perfbench/tracing.py wraps J0 under this module's name
from .specialfn import bessel_j0_grid
from .targets import TargetPattern

DB_FLOOR = -200.0
_FLOOR_LIN = 10.0 ** (DB_FLOOR / 20.0)
_MIN_GRID = 801
_MAIN_LOBE_EDGE_DB = -3.0
_PEAK_TOL_DB = 0.01


@dataclass(frozen=True)
class PatternCut:
    """Peak-normalized pattern magnitude in dB over a uniform u grid."""

    u_grid: NDArray[np.float64]
    amplitude_db: NDArray[np.float64]

    def __post_init__(self) -> None:
        u = np.asarray(self.u_grid, dtype=float)
        db = np.asarray(self.amplitude_db, dtype=float)
        object.__setattr__(self, "u_grid", u)
        object.__setattr__(self, "amplitude_db", db)
        if u.shape != db.shape or u.ndim != 1:
            raise DomainError("u grid and dB values must be matching 1-D arrays")
        if u.size < _MIN_GRID:
            raise DomainError(f"cut needs at least {_MIN_GRID} grid points, got {u.size}")
        if abs(float(db.max())) > 1e-9:
            raise DomainError(f"cut must be peak-normalized to 0 dB, max is {db.max():g}")


@dataclass(frozen=True)
class PatternMetrics:
    """Quality figures measured from a cut against its target."""

    sll_db: float | None
    passband_ripple_db: float | None
    null_depths_db: tuple[tuple[float, float], ...]
    hpbw_u: float | None
    rms_error_vs_target_db: float


@dataclass(frozen=True)
class SurfaceGrid:
    """Pattern magnitude in dB over (theta, phi), one value per theta.

    The pattern has no azimuth dependence, so ``amplitude_db[i]`` holds the
    value at ``theta[i]`` for every phi.
    """

    theta: NDArray[np.float64]
    phi: NDArray[np.float64]
    amplitude_db: NDArray[np.float64]

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        db = np.asarray(self.amplitude_db, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "amplitude_db", db)
        if theta.ndim != 1 or phi.ndim != 1:
            raise DomainError("surface theta and phi must be 1-D arrays")
        if db.shape != theta.shape or 0 in (theta.size, phi.size):
            raise DomainError(
                f"surface needs non-empty axes and one dB value per theta "
                f"{theta.shape}, got {db.shape}"
            )


def _symmetric_grid(n: int) -> NDArray[np.float64]:
    """Uniform grid over [-1, 1] whose points are exact +/- mirror pairs.

    Plain linspace accumulates one-ulp asymmetries that break the exact
    evenness of the evaluated pattern.
    """
    half = n // 2
    pos = (2.0 * np.arange(n - half, n) - (n - 1)) / (n - 1)
    if n % 2:
        return np.concatenate([-pos[::-1], [0.0], pos])
    return np.concatenate([-pos[::-1], pos])


def pattern_on_grid(
    geom: RingGeometry, w: Weights, u: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Array factor evaluated over a whole u grid at once.

    The ring columns are the solver's ring block, without the center
    column the fit appends; the center weight is added after the ring
    product.
    """
    if not w.matches(geom):
        raise DomainError(
            f"weights carry {len(w.rings)} rings but geometry has {geom.n_rings}"
        )
    # einsum sums each row the same way wherever it sits, where BLAS gemv
    # rounds its tail rows differently, so equal rows (the +/-u pairs of a
    # cut) give equal values.  Its order follows the operands' strides, hence
    # the contiguous weight vector.
    total = np.einsum("ij,j->i", _ring_block(geom, u), np.array(w.rings))
    if geom.has_center_element:
        total += w.center
    return total


def _to_db(magnitude: NDArray[np.float64]) -> NDArray[np.float64]:
    """Peak-normalized 20*log10 of a magnitude array, floored at DB_FLOOR.

    All-zero magnitudes cannot be normalized and raise
    :class:`DegeneratePatternError`.
    """
    peak = float(magnitude.max())
    if peak == 0.0:
        raise DegeneratePatternError("all-zero pattern cannot be peak-normalized")
    return 20.0 * np.log10(np.maximum(magnitude / peak, _FLOOR_LIN))


def evaluate_cut(geom: RingGeometry, w: Weights, grid_points: int = 2001) -> PatternCut:
    """Normalized |F(u)| in dB on a uniform grid over [-1, 1].

    The pattern is even in u and the grid's points are exact +/- pairs, so
    only the non-negative half is evaluated and its dB values are mirrored;
    the result is bit-identical to evaluating every point.  Exact zeros are
    floored at -200 dB.  All-zero weights cannot be normalized and raise
    :class:`DegeneratePatternError`.
    """
    if grid_points < _MIN_GRID:
        raise DomainError(f"grid_points must be >= {_MIN_GRID}, got {grid_points}")
    n = int(grid_points)
    u = _symmetric_grid(n)
    db = _to_db(np.abs(pattern_on_grid(geom, w, u[n // 2 :])))
    return PatternCut(u_grid=u, amplitude_db=np.concatenate([db[::-1][: n // 2], db]))


def _contiguous_runs(mask: NDArray[np.bool_]) -> list[tuple[int, int]]:
    """(first, last) index pairs of each run of True values in a 1-D mask."""
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(lo), int(hi) - 1) for lo, hi in zip(edges[0::2], edges[1::2])]


def _main_lobe_mask(cut: PatternCut, target: TargetPattern) -> NDArray[np.bool_]:
    """Grid mask of the main lobe region(s) excluded from sidelobe search."""
    db = cut.amplitude_db
    if target.kind.startswith("flat_top"):
        return target.amplitude(cut.u_grid) > 0.5

    mask = np.zeros(db.shape, dtype=bool)
    for lo, hi in _contiguous_runs(db > _MAIN_LOBE_EDGE_DB):
        if db[lo : hi + 1].max() >= -_PEAK_TOL_DB:
            mask[lo : hi + 1] = True
    return mask


def _local_maxima(
    values: NDArray[np.float64], take_left_edge: bool, take_right_edge: bool
) -> NDArray[np.int_]:
    """Indices of local maxima; run edges count only at the grid boundary.

    A descending flank truncated by the main-lobe region would otherwise
    register its cut point as a spurious sidelobe peak.
    """
    inner = np.where(
        (values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
    )[0] + 1
    edges = []
    if len(values) >= 2:
        if take_left_edge and values[0] >= values[1]:
            edges.append(0)
        if take_right_edge and values[-1] >= values[-2]:
            edges.append(len(values) - 1)
    return np.concatenate([inner, np.array(edges, dtype=int)]) if edges else inner


def measure_metrics(cut: PatternCut, target: TargetPattern) -> PatternMetrics:
    """Sidelobe level, ripple, null depths, beamwidth, and target RMS error.

    The main lobe is the connected region above -3 dB around the global
    peak(s); for flat-top targets it is the region where the target exceeds
    one half.  The sidelobe level is the highest local maximum outside that
    region, absent when the cut has no sidelobes at all.
    """
    u = cut.u_grid
    db = cut.amplitude_db
    main = _main_lobe_mask(cut, target)

    sll: float | None = None
    candidates = []
    # scan each connected run outside the main region for local maxima
    for lo, hi in _contiguous_runs(~main):
        run = db[lo : hi + 1]
        if run.size == 1:
            if lo == 0 or hi == len(u) - 1:
                candidates.append(float(run[0]))
        else:
            for peak_idx in _local_maxima(run, lo == 0, hi == len(u) - 1):
                candidates.append(float(run[peak_idx]))
    if candidates:
        sll = float(max(candidates))

    ripple: float | None = None
    edge = target.params.get("passband_edge")
    if target.kind.startswith("flat_top") and edge is not None:
        band = np.abs(u) <= float(edge)  # type: ignore[arg-type]
        if np.any(band):
            ripple = float(db[band].max() - db[band].min())

    depths: list[tuple[float, float]] = []
    centers = target.params.get("null_centers")
    if centers:
        for center in centers:  # type: ignore[union-attr]
            depths.append((float(center), float(np.interp(float(center), u, db))))

    hpbw: float | None = None
    runs = _contiguous_runs(main)
    if len(runs) == 1:
        lo, hi = runs[0]
        left = _crossing(u, db, lo, direction=-1)
        right = _crossing(u, db, hi, direction=1)
        if left is not None and right is not None:
            hpbw = right - left

    amp = target.amplitude(u)
    meaningful = amp > 1e-4
    if np.any(meaningful):
        target_db = 20.0 * np.log10(amp[meaningful])
        rms = float(np.sqrt(np.mean((db[meaningful] - target_db) ** 2)))
    else:
        rms = float("nan")

    return PatternMetrics(
        sll_db=sll,
        passband_ripple_db=ripple,
        null_depths_db=tuple(depths),
        hpbw_u=hpbw,
        rms_error_vs_target_db=rms,
    )


def _crossing(
    u: NDArray[np.float64], db: NDArray[np.float64], index: int, direction: int
) -> float | None:
    """u where the cut crosses -3 dB walking outward from a main-lobe edge."""
    n = len(u)
    i = index
    while 0 <= i + direction < n:
        j = i + direction
        if db[j] <= _MAIN_LOBE_EDGE_DB:
            span = db[j] - db[i]
            frac = 0.0 if span == 0 else (_MAIN_LOBE_EDGE_DB - db[i]) / span
            return float(u[i] + frac * (u[j] - u[i]))
        i = j
    return None


def evaluate_surface(
    geom: RingGeometry,
    w: Weights,
    theta_points: int = 181,
    phi_points: int = 73,
) -> SurfaceGrid:
    """|F| in dB over theta in [0, pi/2] and phi in [0, 2*pi).

    The pattern has no azimuth dependence, so the grid holds one dB value
    per theta, shared by every phi.
    """
    if theta_points < 2 or phi_points < 2:
        raise DomainError("surface needs at least 2 points along each axis")
    theta = np.linspace(0.0, math.pi / 2.0, int(theta_points))
    phi = np.linspace(0.0, 2.0 * math.pi, int(phi_points), endpoint=False)
    db = _to_db(np.abs(pattern_on_grid(geom, w, np.sin(theta))))
    return SurfaceGrid(theta=theta, phi=phi, amplitude_db=db)


def cut_rows(cut: PatternCut, target: TargetPattern | None = None) -> str:
    """The cut table's text: a header, then one (u, dB) row per grid point.

    With a target, each row also carries the target in dB.  The columns are
    stacked once and every cell is formatted by one ``%`` call; ``%.6f``
    and an f-string's ``:.6f`` share CPython's float formatter, so the text
    matches a per-cell f-string byte for byte.
    """
    header = "u,db"
    columns = [cut.u_grid, cut.amplitude_db]
    if target is not None:
        columns.append(20.0 * np.log10(np.maximum(target.amplitude(cut.u_grid), _FLOOR_LIN)))
        header += ",target_db"
    row = ",".join(["%.6f"] * len(columns)) + "\n"
    values = np.column_stack(columns).ravel().tolist()
    return header + "\n" + (row * cut.u_grid.size) % tuple(values)


def surface_rows(surface: SurfaceGrid) -> str:
    """The surface table's text: a header, then one (theta, phi, dB) row per cell.

    The surface holds one dB value per theta, so each phi label and each
    theta row's head and tail are formatted once, and a theta row's cells
    are one join of the labels.
    """
    phi_labels = ["%.6f" % phi for phi in surface.phi.tolist()]
    parts = ["theta,phi,db\n"]
    for theta, db in zip(surface.theta.tolist(), surface.amplitude_db.tolist()):
        head, tail = "%.6f," % theta, ",%.6f\n" % db
        parts.append(head + (tail + head).join(phi_labels) + tail)
    return "".join(parts)


def metrics_rows(metrics: PatternMetrics) -> list[str]:
    """Flat key = value lines describing the measured metrics."""

    def fmt(value: float | None) -> str:
        return "none" if value is None else f"{value:.6f}"

    rows = [
        f"sll_db = {fmt(metrics.sll_db)}",
        f"passband_ripple_db = {fmt(metrics.passband_ripple_db)}",
        f"hpbw_u = {fmt(metrics.hpbw_u)}",
        f"rms_error_vs_target_db = {fmt(metrics.rms_error_vs_target_db)}",
    ]
    for center, depth in metrics.null_depths_db:
        rows.append(f"null_depth_db[{center:.6f}] = {depth:.6f}")
    return rows
