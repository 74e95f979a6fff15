"""Linear system assembly, batch least squares, and the recursive refinement.

The pattern model is linear in the weights, so sampling the target at M0
points yields an overdetermined system A I = B, built once as one design
matrix.  Its ring columns N_n J0(k r_n u) are the same block that the
analysis stage multiplies by the weights; the fit alone appends the center
element's all-ones column.  The solver works in square-root information form
(Bierman, 1977): its state is the upper-triangular factor R, with R^T R the
Gramian A^T A of the rows absorbed so far, and z = Q^T B, so the estimate
solves R I = z.  The batch stage triangularizes the augmented even-indexed
rows [A B] (the batch half of the sample set) by orthogonal factorization;
the recursive stage absorbs the odd-indexed rows by re-triangularizing
[R z; A B] block by block, each block at most as tall as the weight count,
and back-substitutes once.  Neither stage forms Q or the inverse Gramian
P = (A^T A)^{-1}.  The rank-one gain update K = P a / (a^T P a + 1) of
:func:`rls_absorb` is kept as the reference form.  Absorbing a row set
either way is algebraically identical to batch least squares over the same
rows, which is the correctness property the test suite leans on.

Targets here are real valued and the basis is real, so the solver works in
real arithmetic on plain arrays and builds the real :class:`Weights` once,
when it returns.  Complex abscissas, values, matrix entries or weights raise
:class:`DomainError` rather than losing their imaginary part to a float cast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, SingularSystemError
from .geometry import RingGeometry, Weights, _require_real
from .sampling import SampleSet, build_sample_set, effective_total_count
from .specialfn import bessel_j0_grid
from .targets import TargetPattern

_CONDITION_LIMIT = 1e12
_BACK_SUBSTITUTION_BLOCK = 64


@dataclass(frozen=True)
class DesignMatrix:
    """Dense sample-by-weight coefficient matrix.

    Ring columns hold N_n * J0(k * r_n * u_m); with ``has_center`` a
    trailing all-ones column represents the center element.
    """

    entries: NDArray[np.float64]
    has_center: bool

    def __post_init__(self) -> None:
        _require_real(self.entries, "design matrix entries")
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise DomainError(f"design matrix must be 2-D, got shape {entries.shape}")


@dataclass(frozen=True)
class SolverState:
    """Estimate, square-root information factor, and recursive bookkeeping.

    ``r_factor`` is the upper-triangular R with R^T R equal to the Gramian
    A^T A of every row absorbed so far.
    """

    estimate: Weights
    r_factor: NDArray[np.float64]
    samples_absorbed: int
    passes_completed: int
    residual_trace: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_factor", np.asarray(self.r_factor, dtype=float))


def _ring_block(geom: RingGeometry, abscissas: Sequence[float]) -> NDArray[np.float64]:
    """Ring columns N_n * J0(k * r_n * u_m), one row per abscissa, scaled in place."""
    if len(abscissas) == 0:
        raise DomainError("design matrix needs at least one sample abscissa")
    _require_real(abscissas, "sample abscissas")
    u = np.asarray(abscissas, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("sample abscissas must be finite")
    block = bessel_j0_grid(geom.wavenumber * np.outer(u, geom.radii))
    return np.multiply(block, np.asarray(geom.elements_per_ring, dtype=float), out=block)


def build_design_matrix(geom: RingGeometry, abscissas: Sequence[float]) -> DesignMatrix:
    """Coefficient matrix for the given sample directions."""
    block = _ring_block(geom, abscissas)
    if not geom.has_center_element:
        return DesignMatrix(entries=block, has_center=False)
    # the ones come after J0: allocated first, they sit beside J0's temporaries
    # and raise the peak
    entries = np.ones((block.shape[0], geom.column_count))
    entries[:, :-1] = block
    return DesignMatrix(entries=entries, has_center=True)


def _weights_from_vector(x: NDArray[np.float64], has_center: bool) -> Weights:
    values = x.tolist()
    if has_center:
        return Weights(center=values[-1], rings=tuple(values[:-1]))
    return Weights(center=0.0, rings=tuple(values))


def _vector_from_weights(w: Weights, n_columns: int) -> NDArray[np.float64]:
    if n_columns not in (len(w.rings), len(w.rings) + 1):
        raise DomainError(
            f"row of length {n_columns} does not fit weights with {len(w.rings)} rings"
        )
    return np.array(w.rings + (w.center,))[:n_columns]


def _back_substitute(r: NDArray[np.float64], z: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve R x = z for upper-triangular R (z 1-D or 2-D), bottom block first.

    numpy has no triangular solve, and a general LU over the whole of R
    costs an order of magnitude more; each diagonal block goes through
    ``np.linalg.solve`` and its solution is eliminated from the rows above.
    """
    x = np.array(z, dtype=float)
    for end in range(r.shape[0], 0, -_BACK_SUBSTITUTION_BLOCK):
        start = max(0, end - _BACK_SUBSTITUTION_BLOCK)
        x[start:end] = np.linalg.solve(r[start:end, start:end], x[start:end])
        x[:start] -= r[:start, start:end] @ x[start:end]
    return x


def solve_batch(
    matrix: DesignMatrix, rhs: Sequence[float]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Least-squares solution and square-root information array for a block.

    Triangularizes the augmented rows [A b] by QR without forming Q and
    returns the solution x with the n-by-(n+1) array [R z]: R is upper
    triangular with R^T R = A^T A, z = Q^T b, and x solves R x = z.
    A condition estimate from diag(R) above 1e12 raises
    :class:`SingularSystemError` naming the offending column.
    """
    a = matrix.entries
    _require_real(rhs, "rhs")
    b = np.asarray(rhs, dtype=float)
    if a.shape[0] < a.shape[1]:
        raise DomainError(
            f"system with {a.shape[0]} rows and {a.shape[1]} columns is underdetermined"
        )
    if b.shape != (a.shape[0],):
        raise DomainError(f"rhs length {b.shape} does not match {a.shape[0]} rows")
    if not np.all(np.isfinite(b)):
        raise DomainError("rhs must be finite")

    n = a.shape[1]
    info = np.linalg.qr(np.column_stack((a, b)), mode="r")[:n]
    diag = np.abs(np.diag(info))
    worst = int(np.argmin(diag))
    if diag[worst] == 0.0 or diag.max() / diag[worst] > _CONDITION_LIMIT:
        label = "center" if matrix.has_center and worst == n - 1 else f"ring {worst + 1}"
        raise SingularSystemError(
            f"design matrix is numerically rank deficient at column {worst} ({label})",
            column_index=worst,
            column_label=label,
        )
    return _back_substitute(info[:, :n], info[:, n]), info


def rls_absorb(state: SolverState, row: Sequence[float], rhs_value: float) -> SolverState:
    """Absorb one sample row into the estimate via the rank-one gain update.

    gain K = P a / (a^T P a + 1), with P a = R^{-1} R^{-T} a from two
    triangular solves; the estimate moves by K times the innovation (rhs
    minus prediction), and R is carried forward by re-triangularizing
    [R; a^T], so P is never formed.
    """
    a = np.asarray(row, dtype=float)
    rhs_value = float(rhs_value)
    if a.ndim != 1:
        raise DomainError(f"row must be 1-D, got shape {a.shape}")
    if not (np.all(np.isfinite(a)) and math.isfinite(rhs_value)):
        raise DomainError("row and rhs value must be finite")
    r = state.r_factor
    if a.shape[0] != r.shape[0]:
        raise DomainError(f"row length {a.shape[0]} does not match state size {r.shape[0]}")

    x = _vector_from_weights(state.estimate, a.shape[0])
    # R^T y = a is lower triangular: reversing rows and columns makes it upper
    y = _back_substitute(r.T[::-1, ::-1], a[::-1])[::-1]
    pa = _back_substitute(r, y)
    gain = pa / (y @ y + 1.0)
    innovation = rhs_value - a @ x
    x_new = x + gain * innovation
    r_new = np.linalg.qr(np.vstack((r, a)), mode="r")

    has_center = a.shape[0] == len(state.estimate.rings) + 1
    return replace(
        state,
        estimate=_weights_from_vector(x_new, has_center),
        r_factor=r_new,
        samples_absorbed=state.samples_absorbed + 1,
    )


def _retriangularize(
    info: NDArray[np.float64], rows: NDArray[np.float64], rhs: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Absorb sample rows into the information array [R z] by QR.

    Each block [A b] of at most n rows is stacked under [R z] and the
    (at most 2n)-by-(n+1) result re-triangularized, keeping its top n rows;
    one preallocated buffer holds every block, so the work space stays the
    same whatever the row count.
    """
    n = info.shape[0]
    stacked = np.empty((2 * n, n + 1))
    stacked[:n] = info
    for start in range(0, rows.shape[0], n):
        block = rows[start : start + n]
        height = n + block.shape[0]
        stacked[n:height, :-1] = block
        stacked[n:height, -1] = rhs[start : start + n]
        stacked[:n] = np.linalg.qr(stacked[:height], mode="r")[:n]
    return stacked[:n].copy()


def synthesize(
    geom: RingGeometry, target: TargetPattern, samples: SampleSet | None = None
) -> tuple[Weights, SolverState]:
    """Run the two-stage synthesis pipeline for a geometry and target.

    The batch stage triangularizes the batch half of the sample set into
    [R z]; one pass then absorbs the incremental half by re-triangularizing
    [R z; A b] in blocks of at most the weight count, and one back
    substitution gives the weights, which in exact arithmetic are the full
    least-squares solution.  The solve stays in arrays until the weights
    are returned.  ``passes_completed`` is that one pass (0 without
    incremental rows), every sample is absorbed once, and ``residual_trace``
    holds the seed's residual and the final one over the whole sample set.

    Without ``samples`` the set is sized by
    :func:`~ringsynth.sampling.effective_total_count`.  A caller's set is
    used as given: a batch half exactly as tall as the weight count is solved
    exactly, and a shorter one raises :class:`DomainError` from
    :func:`solve_batch`.
    """
    if samples is None:
        samples = build_sample_set(geom, target, total_count=effective_total_count(geom))

    matrix = build_design_matrix(geom, samples.abscissas)
    rhs = samples.values
    batch = DesignMatrix(entries=matrix.entries[0::2], has_center=matrix.has_center)
    x_seed, info = solve_batch(batch, rhs[0::2])
    info = _retriangularize(info, matrix.entries[1::2], rhs[1::2])
    r = info[:, :-1]
    x = _back_substitute(r, info[:, -1])
    weights = _weights_from_vector(x, geom.has_center_element)
    state = SolverState(
        estimate=weights,
        r_factor=r,
        samples_absorbed=samples.total_count,
        passes_completed=1 if samples.total_count > samples.batch_count else 0,
        residual_trace=tuple(
            float(np.linalg.norm(matrix.entries @ v - rhs)) for v in (x_seed, x)
        ),
    )
    return weights, state
