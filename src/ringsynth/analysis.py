"""Dense pattern cuts that carry their target, dB conversion, and pattern quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np
from numpy.typing import NDArray

from .errors import DegeneratePatternError, DomainError
from .geometry import RingGeometry, Weights, _real_array, _whole
from .solver import _ring_block, _row_chunks, _vector_from_weights
# unused here; kept while perfbench/tracing.py wraps J0 under this module's name
from .specialfn import bessel_j0_grid
from .targets import TargetPattern

DB_FLOOR = -200.0
_FLOOR_LIN = 10.0 ** (DB_FLOOR / 20.0)
_MIN_GRID = 801
_MAIN_LOBE_EDGE_DB = -3.0
_PEAK_TOL_DB = 0.01
_CHUNK_ROWS = 4096  # cut rows formatted and written at a time
_BLOCK_BYTES = 65536  # bytes a surface write gathers; no write exceeds twice this


def _set_finite_arrays(obj: object, what: str, names: tuple[str, ...]) -> None:
    """Store each named field of a frozen dataclass as a finite 1-D float array."""
    for name in names:
        object.__setattr__(obj, name, _real_array(getattr(obj, name), f"{what} {name}", 1))


@dataclass(frozen=True)
class PatternCut:
    """Peak-normalized pattern magnitude in dB and linear target |amplitude| over a u grid."""

    u_grid: NDArray[np.float64]
    amplitude_db: NDArray[np.float64]
    target_amplitude: NDArray[np.float64]

    def __post_init__(self) -> None:
        _set_finite_arrays(self, "cut", ("u_grid", "amplitude_db", "target_amplitude"))
        u, db = self.u_grid, self.amplitude_db
        if db.shape != u.shape or self.target_amplitude.shape != u.shape:
            raise DomainError("u grid, dB values and target amplitude must be of one length")
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

    The continuous-ring model (see :mod:`ringsynth.geometry`) has no azimuth
    dependence, so ``amplitude_db[i]`` holds its value at ``theta[i]`` for
    every phi.  The axes span the hemisphere that :func:`evaluate_surface`
    samples: theta in [0, pi/2] and phi in [0, 2*pi), neither with a sign bit
    (not even -0.0).
    """

    theta: NDArray[np.float64]
    phi: NDArray[np.float64]
    amplitude_db: NDArray[np.float64]

    def __post_init__(self) -> None:
        _set_finite_arrays(self, "surface", ("theta", "phi", "amplitude_db"))
        theta, phi, db = self.theta, self.phi, self.amplitude_db
        if db.shape != theta.shape or 0 in (theta.size, phi.size):
            raise DomainError(
                f"surface needs non-empty axes and one dB value per theta "
                f"{theta.shape}, got {db.shape}"
            )
        if (np.signbit(theta).any() or np.signbit(phi).any()
                or theta.max() > math.pi / 2.0 or phi.max() >= 2.0 * math.pi):
            raise DomainError("surface theta must lie in [0, pi/2] and phi in [0, 2*pi)")


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
    """Array factor over a u grid: the fit's ring block, center column included, times the weights.

    Each chunk of whole J0 panels is multiplied and dropped; the block never exists whole.
    """
    if len(w.rings) != geom.n_rings:
        raise DomainError(
            f"weights carry {len(w.rings)} rings but geometry has {geom.n_rings}"
        )
    x = _vector_from_weights(w, geom.column_count)
    values = np.empty(len(u))
    # einsum sums each row the same way wherever it sits, where BLAS gemv
    # rounds its tail rows differently, so chunks give one block's values.  Its
    # order follows the operands' strides, hence the contiguous weight vector.
    for rows in _row_chunks(len(u), geom.column_count):
        np.einsum("ij,j->i", _ring_block(geom, u[rows]), x, out=values[rows])
    return values


def _to_db(magnitude: NDArray[np.float64]) -> NDArray[np.float64]:
    """Peak-normalized 20*log10 of a magnitude array, floored at DB_FLOOR.

    All-zero magnitudes cannot be normalized and raise
    :class:`DegeneratePatternError`.
    """
    peak = float(magnitude.max())
    if peak == 0.0:
        raise DegeneratePatternError("all-zero pattern cannot be peak-normalized")
    return 20.0 * np.log10(np.maximum(magnitude / peak, _FLOOR_LIN))


def evaluate_cut(geom: RingGeometry, w: Weights, target: TargetPattern,
                 grid_points: int = 2001) -> PatternCut:
    """Normalized |F(u)| in dB and the target's |amplitude| on a uniform grid over [-1, 1].

    The pattern is even in u and the grid's points are exact +/- pairs, so
    only the non-negative half is evaluated and its dB values are mirrored,
    which makes the cut exactly even.  Evaluating every point agrees to J0's
    rounding, since the ring block then groups the rows into other J0
    panels.  Exact zeros are floored at -200 dB.  All-zero weights cannot be normalized and raise
    :class:`DegeneratePatternError`.  The target is evaluated once over the
    whole grid: tables and notched targets need not be even in u.
    """
    n = _whole(grid_points, "grid_points")
    if n < _MIN_GRID:
        raise DomainError(f"grid_points must be >= {_MIN_GRID}, got {grid_points}")
    u = _symmetric_grid(n)
    db = _to_db(np.abs(pattern_on_grid(geom, w, u[n // 2 :])))
    return PatternCut(u, np.concatenate([db[::-1][: n // 2], db]), target.amplitude(u))


def _contiguous_runs(mask: NDArray[np.bool_]) -> list[tuple[int, int]]:
    """(first, last) index pairs of each run of True values in a 1-D mask."""
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(lo), int(hi) - 1) for lo, hi in zip(edges[0::2], edges[1::2])]


def measure_metrics(cut: PatternCut, target: TargetPattern) -> PatternMetrics:
    """Sidelobe level, ripple, null depths, beamwidth, and target RMS error.

    The lobes are the connected regions above -3 dB that hold the 0 dB peak
    (within 0.01 dB).  The main region is the lobes; for flat-top targets
    it is the region where the target exceeds one half, so that passband
    ripple never counts as a sidelobe.  A sidelobe peak is a grid point
    outside the main region that is >= each grid neighbour outside it; a
    neighbour inside it marks a flank truncated by the main region, which
    counts only at a grid end.  The sidelobe level is the highest such
    peak, absent when there is none.  The beamwidth is the width between
    the -3 dB crossings of a single lobe, each interpolated linearly
    between the lobe's edge point and its outer neighbour; it is absent
    when there are two lobes or the lobe reaches a grid end.  The target
    amplitude comes from the cut; ``target`` gives only its kind and
    parameters.
    """
    u = cut.u_grid
    db = cut.amplitude_db
    lobes = [(lo, hi) for lo, hi in _contiguous_runs(db > _MAIN_LOBE_EDGE_DB)
             if db[lo : hi + 1].max() >= -_PEAK_TOL_DB]
    if target.kind.startswith("flat_top"):
        main = cut.target_amplitude > 0.5
    else:
        main = np.zeros(db.shape, dtype=bool)
        for lo, hi in lobes:
            main[lo : hi + 1] = True

    peaks = ~main
    peaks[1:-1] &= ~main[:-2] & ~main[2:] & (db[1:-1] >= db[:-2]) & (db[1:-1] >= db[2:])
    peaks[0] &= main[1] or db[0] >= db[1]
    peaks[-1] &= main[-2] or db[-1] >= db[-2]
    sll = float(db[peaks].max()) if peaks.any() else None

    ripple: float | None = None
    edge = target.params.get("passband_edge")
    if edge is not None:
        band = np.abs(u) <= float(edge)  # type: ignore[arg-type]
        if np.any(band):
            ripple = float(db[band].max() - db[band].min())

    centers = [float(c) for c in target.params.get("null_centers") or ()]  # type: ignore[union-attr]
    depths = tuple(zip(centers, np.interp(centers, u, db).tolist()))

    hpbw: float | None = None
    if len(lobes) == 1 and lobes[0][0] > 0 and lobes[0][1] < db.size - 1:
        lo, hi = lobes[0]
        hpbw = _crossing(u, db, hi, hi + 1) - _crossing(u, db, lo, lo - 1)

    amp = cut.target_amplitude
    meaningful = amp > 1e-4
    if np.any(meaningful):
        target_db = 20.0 * np.log10(amp[meaningful])
        rms = float(np.sqrt(np.mean((db[meaningful] - target_db) ** 2)))
    else:
        rms = float("nan")

    return PatternMetrics(
        sll_db=sll,
        passband_ripple_db=ripple,
        null_depths_db=depths,
        hpbw_u=hpbw,
        rms_error_vs_target_db=rms,
    )


def _crossing(u: NDArray[np.float64], db: NDArray[np.float64], i: int, j: int) -> float:
    """u where the line from (u[i], db[i]) to (u[j], db[j]) crosses -3 dB."""
    span = db[j] - db[i]
    frac = 0.0 if span == 0 else (_MAIN_LOBE_EDGE_DB - db[i]) / span
    return float(u[i] + frac * (u[j] - u[i]))


def evaluate_surface(
    geom: RingGeometry,
    w: Weights,
    theta_points: int = 181,
    phi_points: int = 73,
) -> SurfaceGrid:
    """|F| in dB over theta in [0, pi/2] and phi in [0, 2*pi).

    The continuous-ring model (see :mod:`ringsynth.geometry`) has no azimuth
    dependence, so the grid holds one dB value per theta, shared by every phi.
    """
    n_theta, n_phi = _whole(theta_points, "theta_points"), _whole(phi_points, "phi_points")
    if n_theta < 2 or n_phi < 2:
        raise DomainError("surface needs at least 2 points along each axis")
    theta = np.linspace(0.0, math.pi / 2.0, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    db = _to_db(np.abs(pattern_on_grid(geom, w, np.sin(theta))))
    return SurfaceGrid(theta=theta, phi=phi, amplitude_db=db)


def _digit_tables() -> tuple[NDArray[np.uint32], ...]:
    """Little-endian ASCII words for 0..999: the lead, ``.ddd`` and ``ddd`` tables.

    A lead word is a free sign byte, then the number without leading zeros
    (pad bytes 0 in their place); a ``ddd`` word leaves its last byte free
    for the separator.
    """
    d = np.arange(1000, dtype=np.uint32)
    zero = ord("0")
    a, b, c = d // 100 + zero, d // 10 % 10 + zero, d % 10 + zero
    lead = (np.where(d >= 100, a, 0) << 8) | (np.where(d >= 10, b, 0) << 16) | (c << 24)
    dot = ord(".") | (a << 8) | (b << 16) | (c << 24)
    return tuple(t.astype("<u4") for t in (lead, dot, a | (b << 8) | (c << 16)))


_LEAD, _DOT, _TAIL = _digit_tables()


def _fixed6_digits(v: NDArray[np.float64]) -> tuple[NDArray[np.uint32], ...] | None:
    """|v| to six decimals as (integer part, decimals 1-3, decimals 4-6), or None.

    None when a cell is not safe: it must round below 1000 and v * 1e6 must
    not lie too near a rounding tie (see :func:`cut_rows`).
    """
    p = v * 1e6
    k = np.rint(p)
    with np.errstate(invalid="ignore"):
        margin = np.abs(np.abs(p - k) - 0.5) > np.abs(p) * 2.0**-50
        if not ((np.abs(k) < 1e9) & margin).all():
            return None
    whole, frac = np.divmod(np.abs(k).astype(np.uint32), np.uint32(10**6))
    return (whole, *np.divmod(frac, np.uint32(1000)))


def _fixed6_table(v: NDArray[np.float64]) -> bytes | None:
    """ASCII row of comma-joined ``%.6f`` cells per row of v, or None when a cell is not safe.

    Every cell is three 4-byte words looked up from the digit tables, and the
    pad bytes are dropped at the end.
    """
    digits = _fixed6_digits(v)
    if digits is None:
        return None
    words = np.empty(v.shape + (3,), dtype="<u4")
    for i, (table, index) in enumerate(zip((_LEAD, _DOT, _TAIL), digits)):
        np.take(table, index, out=words[..., i])
    del digits  # freed before the copies that drop the pads, which keeps the peak low
    words[..., 0] |= np.signbit(v) * np.uint32(ord("-"))
    words[:, :-1, 2] |= np.uint32(ord(",") << 24)
    words[:, -1, 2] |= np.uint32(ord("\n") << 24)
    return words.tobytes().translate(None, b"\0")


def cut_rows(cut: PatternCut, out: BinaryIO) -> None:
    """Write the cut table to ``out``: a header, then one (u, dB, target dB) row per grid point.

    Every cell is ``%.6f`` text, byte for byte: ``%`` prints the exact binary
    value rounded half-even to six decimals, and so does ``rint(v * 1e6)``
    wherever the product's rounding error (at most |p| * 2**-53 for
    p = v * 1e6) cannot carry it across a half-integer.  The rows go out in
    chunks of ``_CHUNK_ROWS``, so the table never exists as one string, and
    each chunk goes through one vectorised kernel when every rint(p) is below
    1e9 in magnitude (an integer part of at most three digits) and every p
    lies more than |p| * 2**-50 from a half-integer.  Exact ties (such as
    0.0078125), NaN, inf and larger values fail that test, and then that
    chunk alone is formatted by one bytes ``%`` call instead.  u, dB and
    target dB all lie in [-200, 1], so a chunk falls back only if one of its
    values is such a tie.  ``out`` is a binary stream; the table is ASCII.
    """
    out.write(b"u,db,target_db\n")
    for start in range(0, cut.u_grid.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        target_db = 20.0 * np.log10(np.maximum(cut.target_amplitude[rows], _FLOOR_LIN))
        values = np.column_stack([cut.u_grid[rows], cut.amplitude_db[rows], target_db])
        text = _fixed6_table(values)
        if text is None:
            text = (b"%.6f,%.6f,%.6f\n" * len(values)) % tuple(values.ravel().tolist())
        out.write(text)


def _formatted(fmt: bytes, values: NDArray[np.float64]) -> tuple[bytes, NDArray[np.intp]]:
    """``fmt % v`` of each value, joined, and the offset of each piece and of the end.

    The last byte of ``fmt`` must not occur in ``%.6f`` text.
    """
    text = (fmt * values.size) % tuple(values.tolist())
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) == fmt[-1]) + 1
    return text, np.concatenate([[0], ends])


def _records(fmt: bytes, values: NDArray[np.float64], width: int) -> NDArray[np.void]:
    """Packed ``width``-byte records of ``fmt % v``, formatted ``_CHUNK_ROWS`` values at a time."""
    records = np.empty(values.size, f"V{width}")
    for start in range(0, values.size, _CHUNK_ROWS):
        part = values[start : start + _CHUNK_ROWS]
        text = (fmt * part.size) % tuple(part.tolist())
        records[start : start + part.size] = np.frombuffer(text, records.dtype)
    return records


def _cell_blocks(head: NDArray[np.void], tail: NDArray[np.void],
                 labels: NDArray[np.void]) -> Iterator[memoryview]:
    """Cells ``head[i] + labels[j] + tail[i]`` of rows i and phis j, as 1-D byte views of one buffer.

    The heads share one width, and so do the tails.  A block is whole rows,
    or a piece of one wider row, of at least ``_BLOCK_BYTES`` except at the
    end of the rows or of a wide row; it is valid until the next is asked
    for.  A row's tail and head meet between its cells, so both go in by one
    copy of their seam, laid from each cell's tail into the next cell's
    head; each row's first head follows.
    """
    count, phis = head.size, labels.size
    h_width, size = head.itemsize, head.itemsize + labels.itemsize + tail.itemsize
    seam = np.empty(count, [("t", tail.dtype), ("h", head.dtype)])
    seam["t"], seam["h"] = tail, head
    seam = seam.view(f"V{seam.itemsize}")[:, None]
    cols = min(phis, -(-_BLOCK_BYTES // size))
    rows = min(count, -(-_BLOCK_BYTES // (cols * size)))
    strides = (cols * size, size)
    buf = np.empty(rows * cols * size + h_width, np.uint8)  # the last seam runs past the cells
    seams = np.ndarray((rows, cols), seam.dtype, buf, h_width + labels.itemsize, strides)
    row_heads = np.ndarray((rows, 1), head.dtype, buf, 0, strides)
    cell_labels = np.ndarray((rows, cols), labels.dtype, buf, h_width, strides)
    cell_labels[...] = labels[:cols]
    for i in range(0, count, rows):
        seams[: count - i] = seam[i : i + rows]
        row_heads[: count - i] = head[i : i + rows, None]
        for j in range(0, phis, cols):
            if cols < phis:  # one row per block, taken in pieces
                cell_labels[0, : phis - j] = labels[j : j + cols]
            yield buf[: min(rows, count - i) * min(cols, phis - j) * size].data


def _surface_blocks(surface: SurfaceGrid) -> Iterator[memoryview]:
    """The surface table's cells in :func:`_cell_blocks` of each run of rows.

    On the hemisphere every head is 9 bytes and every label 8, so a run is a
    longest stretch of rows, within one chunk of ``_CHUNK_ROWS``, whose tails
    share one width.
    """
    labels = _records(b"%.6f", surface.phi, 8)
    for start in range(0, surface.theta.size, _CHUNK_ROWS):
        heads = _records(b"%.6f,", surface.theta[start : start + _CHUNK_ROWS], 9)
        tails, tail_at = _formatted(b",%.6f\n", surface.amplitude_db[start : start + _CHUNK_ROWS])
        widths = np.diff(tail_at)
        edges = [0, *(np.flatnonzero(np.diff(widths)) + 1), widths.size]
        for first, last in zip(edges[:-1], edges[1:]):
            tail = np.frombuffer(tails, f"V{widths[first]}", last - first, tail_at[first])
            yield from _cell_blocks(heads[first:last], tail, labels)


def surface_rows(surface: SurfaceGrid, out: BinaryIO) -> None:
    """Write the surface table to ``out``: a header, then one (theta, phi, dB) row per cell.

    ``out`` is a binary stream, and the table is ASCII.  A cell is the
    record ``head + label + tail``: ``%.6f,`` of its theta (9 bytes),
    ``%.6f`` of its phi (8 bytes, one packed array) and ``,%.6f\n`` of its
    dB value, each formatted once with ``%``, heads and tails ``_CHUNK_ROWS``
    rows at a time.  Blocks of records are filled by field copies and go out
    in one write each; short ones are gathered until they reach
    ``_BLOCK_BYTES``, and no write exceeds twice that.
    """
    pending, size = [b"theta,phi,db\n"], 13
    for block in _surface_blocks(surface):
        if size + len(block) > 2 * _BLOCK_BYTES:
            out.write(b"".join(pending))
            pending, size = [], 0
        size += len(block)
        if size < _BLOCK_BYTES:
            pending.append(bytes(block))  # a copy: the buffer behind block is refilled
            continue
        out.write(b"".join([*pending, block]) if pending else block)
        pending, size = [], 0
    out.write(b"".join(pending))


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
