"""Linear system assembly, batch least squares, and the recursive refinement.

The pattern model is linear in the weights, so sampling the target at M0
points yields an overdetermined system A I = B.  Its columns N_n J0(k r_n u),
the center element last as the ring (0, 1), form the ring block, which
nothing holds whole: it comes in chunks of whole J0 panels, for the solver
and for the analysis stage's products with the weights.  The solver works in
square-root information form (Bierman, 1977): its state is the
upper-triangular factor R, with R^T R the Gramian A^T A of the rows absorbed
so far, and z = Q^T B, so the estimate solves R I = z.  The batch stage
triangularizes the augmented even-indexed rows [A B] (the batch half of the
sample set) by orthogonal factorization; the recursive stage absorbs the
odd-indexed rows chunk by chunk, re-triangularizing [R z; A B] in one loop
over 64-column panels whatever the weight count, and back-substitutes once.
Neither stage forms Q or the inverse Gramian P = (A^T A)^{-1}.  The rank-one
gain update K = P a / (a^T P a + 1) of :func:`rls_absorb` is kept as the
reference form.  Absorbing a row set either way is algebraically identical
to batch least squares over the same rows, which is the correctness property
the test suite leans on.

Targets here are real valued and the basis is real, so the solver works in
real arithmetic on plain arrays and builds the real :class:`Weights` once,
when it returns.  Complex abscissas, values, matrix entries or weights raise
:class:`DomainError` rather than losing their imaginary part to a float cast.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, SingularSystemError
from .geometry import RingGeometry, Weights, _require_real
from .sampling import SampleSet, build_sample_set, effective_total_count
from .specialfn import _BLOCK as _J0_PANEL
from .specialfn import bessel_j0_grid, j0_hankel_columns
from .targets import TargetPattern

_CONDITION_LIMIT = 1e12
_BLOCK = 64  # rows of a back-substitution block, columns of an absorption panel
_CHUNK_PANELS = 8  # J0 panels per row chunk: about 2 MB of ring block at any width


@dataclass(frozen=True)
class DesignMatrix:
    """Dense sample-by-weight coefficient matrix.

    Columns hold N_n * J0(k * r_n * u_m), the center element last as the
    ring (0, 1).
    """

    entries: NDArray[np.float64]

    def __post_init__(self) -> None:
        _require_real(self.entries, "design matrix entries")
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise DomainError(f"design matrix must be 2-D, got shape {entries.shape}")


@dataclass(frozen=True)
class SolverState:
    """Estimate, square-root information factor, and residual trace.

    ``r_factor`` is the upper-triangular R with R^T R equal to the Gramian
    A^T A of every row absorbed so far.
    """

    estimate: Weights
    r_factor: NDArray[np.float64]
    # derived (1 with incremental rows, else 0); kept while perfbench/tracing.py reads it
    passes_completed: int
    residual_trace: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_factor", np.asarray(self.r_factor, dtype=float))


def _ring_block(geom: RingGeometry, abscissas: Sequence[float]) -> NDArray[np.float64]:
    """Design columns N_n * J0(k * r_n * u_m), one row per abscissa, scaled in place.

    The center element is the ring (0.0, 1), appended last, so the block is
    the whole design matrix.  J0 goes over row panels of about
    ``_J0_PANEL`` elements: in each, the ring columns wholly in J0's Hankel
    branch come from two small matrix products
    (:func:`~ringsynth.specialfn.j0_hankel_columns`), and the rest (the
    series branch, columns that straddle x = 8, the center, and panels
    holding u = 0) go through :func:`bessel_j0_grid`.
    """
    if len(abscissas) == 0:
        raise DomainError("design matrix needs at least one sample abscissa")
    _require_real(abscissas, "sample abscissas")
    u = np.asarray(abscissas, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("sample abscissas must be finite")
    radii, counts = geom.radii, geom.elements_per_ring
    if geom.has_center_element:
        radii, counts = radii + (0.0,), counts + (1,)
    # the block is the only basis-sized array: J0 is written back over it
    # panel by panel, so a panel's J0 takes at most a panel-sized temporary
    block = np.multiply.outer(u, np.asarray(radii, dtype=float))
    np.multiply(block, geom.wavenumber, out=block)
    n_rings, n_columns = geom.n_rings, block.shape[1]
    step = max(1, _J0_PANEL // n_columns)
    # the columns left beside a panel's products wait until about a panel's
    # worth of them can go through one bessel_j0_grid call
    pending: list[NDArray[np.float64]] = []
    held = 0
    for lo in range(0, block.shape[0], step):
        panel = block[lo : lo + step]
        first = j0_hankel_columns(u[lo : lo + step], panel[:, :n_rings])
        if first == n_rings:
            panel[...] = bessel_j0_grid(panel)
            continue
        pending += [panel[:, :first], panel[:, n_rings:]]
        held += panel.shape[0] * (first + n_columns - n_rings)
        if held >= _J0_PANEL:
            _j0_in_place(pending)
            pending, held = [], 0
    if held:
        _j0_in_place(pending)
    return np.multiply(block, np.asarray(counts, dtype=float), out=block)


def _j0_in_place(views: list[NDArray[np.float64]]) -> None:
    """J0 over each of several views, through one :func:`bessel_j0_grid` call.

    Its fixed cost, a few dozen numpy calls on a block that mixes both
    branches, would otherwise come once per panel.
    """
    values = bessel_j0_grid(np.concatenate([v.ravel() for v in views]))
    offset = 0
    for v in views:
        v[...] = values[offset : offset + v.size].reshape(v.shape)
        offset += v.size


def build_design_matrix(geom: RingGeometry, abscissas: Sequence[float]) -> DesignMatrix:
    """Coefficient matrix for the given sample directions."""
    return DesignMatrix(_ring_block(geom, abscissas))


def _row_chunks(n_rows: int, n_columns: int, split: int = 0) -> list[slice]:
    """Row slices of up to ``_CHUNK_PANELS`` whole J0 panels, none across ``split``.

    The slices start on the panel edges of one :func:`_ring_block` call over
    the rows before ``split`` and one over the rest, so each slice's block is
    that call's rows bit for bit (the Hankel products depend on each panel's
    smallest |u|).  Rows that fit one chunk, or none, are one slice.
    """
    rows = _CHUNK_PANELS * max(1, _J0_PANEL // n_columns)
    if n_rows <= rows:
        return [slice(0, n_rows)]
    starts = [*range(0, split, rows), *range(split, n_rows, rows)]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_rows])]


def _weights_from_vector(x: NDArray[np.float64], n_rings: int) -> Weights:
    """Weights from a column vector, the center at index ``n_rings`` (0.0 when absent)."""
    values = x.tolist() + [0.0]
    return Weights(center=values[n_rings], rings=tuple(values[:n_rings]))


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
    for end in range(r.shape[0], 0, -_BLOCK):
        start = max(0, end - _BLOCK)
        x[start:end] = np.linalg.solve(r[start:end, start:end], x[start:end])
        x[:start] -= r[:start, start:end] @ x[start:end]
    return x


def solve_batch(
    augmented: NDArray[np.float64], has_center: bool
) -> tuple[NDArray[np.float64], NDArray[np.float64], float]:
    """Least-squares solution, square-root information array and residual of [A b].

    Triangularizes the augmented rows [A b] by QR without forming Q and
    returns x, the n-by-(n+1) array [R z] and |rho| = ||A x - b||: R is upper
    triangular with R^T R = A^T A, z = Q^T b, x solves R x = z, and rho is
    the last entry of the factor's row n + 1 (0 when A is square).  A
    condition estimate from diag(R) above 1e12 raises
    :class:`SingularSystemError` naming the offending column, the last one
    ``center`` when ``has_center``.
    """
    _require_real(augmented, "augmented system")
    ab = np.asarray(augmented, dtype=float)
    m, n = ab.shape[0], ab.shape[-1] - 1
    if ab.ndim != 2 or m < n:
        raise DomainError(f"system [A b] of shape {ab.shape} is not 2-D or is underdetermined")
    if not np.all(np.isfinite(ab[:, n])):
        raise DomainError("rhs must be finite")

    factor = np.linalg.qr(ab, mode="r")
    info = factor[:n]
    diag = np.abs(np.diag(info))
    worst = int(np.argmin(diag))
    if diag[worst] == 0.0 or diag.max() / diag[worst] > _CONDITION_LIMIT:
        label = "center" if has_center and worst == n - 1 else f"ring {worst + 1}"
        raise SingularSystemError(
            f"design matrix is numerically rank deficient at column {worst} ({label})",
            column_index=worst,
            column_label=label,
        )
    rho = abs(float(factor[n, n])) if m > n else 0.0
    return _back_substitute(info[:, :n], info[:, n]), info, rho


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

    return replace(
        state,
        estimate=_weights_from_vector(x_new, len(state.estimate.rings)),
        r_factor=r_new,
    )


def _block_reflector(tau: NDArray[np.float64], gram: NDArray[np.float64]) -> NDArray[np.float64]:
    """Upper-triangular T with H_1 H_2 ... H_k = I - V T V^T (LAPACK larft).

    ``gram`` is V^T V off its diagonal; a reflector with tau = 0 is the
    identity and leaves its column of T zero.
    """
    t = np.diag(tau)
    scaled = gram * -tau  # column i of V^T V times -tau_i
    for i in range(1, tau.shape[0]):
        t[:i, i] = t[:i, :i] @ scaled[:i, i]
    return t


def _retriangularize(info: NDArray[np.float64], low: NDArray[np.float64]) -> None:
    """Absorb the sample rows [A b] of ``low`` into the information array [R z], in place.

    [R z] becomes [R' z'] with R'^T R' = R^T R + A^T A, and b what the rows
    leave of the residual: ||b||^2 is what they add to ||A x - b||^2.  The
    columns go in panels of 64, the last possibly narrower; each [R_jj; A_j]
    is factored with Householder reflectors, which are zero in R's rows below
    the pivot because R_jj is triangular, so V = [I; V_A].  The panel's block
    reflector I - V T V^T (Schreiber and Van Loan, 1989) then updates the
    trailing columns of [R z] and [A b], z always among them, with two
    products, and R's rows below the panel are never factored again.  With
    no rows every tau is 0 and [R z] stays as it was.
    """
    n = info.shape[0]
    for start in range(0, n, _BLOCK):
        end = min(start + _BLOCK, n)
        panel = np.vstack((info[start:end, start:end], low[:, start:end]))
        h, tau = np.linalg.qr(panel, mode="raw")  # h holds the factored panel transposed
        info[start:end, start:end] = np.triu(h[:, : end - start].T)
        v = h[:, end - start :].T
        t = _block_reflector(tau, v.T @ v)
        w = t.T @ (info[start:end, end:] + v.T @ low[:, end:])
        info[start:end, end:] -= w
        low[:, end:] -= v @ w


def synthesize(
    geom: RingGeometry, target: TargetPattern, samples: SampleSet | None = None
) -> tuple[Weights, SolverState]:
    """Run the two-stage synthesis pipeline for a geometry and target.

    The rows come in chunks of whole J0 panels, batch half first, and a
    chunk holds rows of both halves only when it holds every row, so that
    such a problem makes one ring-block call.  The batch chunks fill the
    batch's augmented [A b], which :func:`solve_batch` triangularizes into
    [R z]; the incremental chunks are then absorbed one by one
    (:func:`_retriangularize`), and one back substitution gives the weights,
    which in exact arithmetic are the full least-squares solution.  The peak
    is the batch [A b] plus numpy's two working copies of it.
    ``residual_trace`` holds ||A x - b|| over every sample at the seed and at
    the final x: the batch residual of :func:`solve_batch` and, in
    quadrature, each incremental chunk's ||A_c x_seed - b_c|| or what its
    absorption leaves of b_c.

    Without ``samples`` the set is sized by
    :func:`~ringsynth.sampling.effective_total_count`.  A caller's set is
    used as given: a batch half exactly as tall as the weight count is solved
    exactly, and a shorter one raises :class:`DomainError` from
    :func:`solve_batch`.
    """
    if samples is None:
        samples = build_sample_set(geom, target, total_count=effective_total_count(geom))

    n, n_batch = geom.column_count, samples.batch_count
    u = np.concatenate((samples.abscissas[0::2], samples.abscissas[1::2]))
    b = np.concatenate((samples.values[0::2], samples.values[1::2]))
    chunks = _row_chunks(u.shape[0], n, n_batch)
    k = sum(rows.start < n_batch for rows in chunks)
    augmented = np.empty((n_batch, n + 1))
    augmented[:, n] = b[:n_batch]
    waiting = []  # [A b] of the incremental rows when one chunk holds every row
    for rows in chunks[:k]:
        a = build_design_matrix(geom, u[rows]).entries
        augmented[rows, :n] = a[: n_batch - rows.start]
        if rows.stop > n_batch:
            waiting.append(np.column_stack((a[n_batch - rows.start :], b[n_batch:])))
        del a  # only [A b] arrays live through the batch QR
    x_seed, info, rho = solve_batch(augmented, geom.has_center_element)
    del augmented
    rest = (np.column_stack((build_design_matrix(geom, u[r]).entries, b[r])) for r in chunks[k:])
    seed_sq = final_sq = rho * rho
    for low in itertools.chain(waiting, rest):
        misfit = low[:, :n] @ x_seed - low[:, n]
        seed_sq += misfit @ misfit
        _retriangularize(info, low)
        final_sq += low[:, n] @ low[:, n]
    r = info[:, :-1]
    x = _back_substitute(r, info[:, -1])
    weights = _weights_from_vector(x, geom.n_rings)
    state = SolverState(
        estimate=weights,
        r_factor=r,
        passes_completed=1 if samples.total_count > samples.batch_count else 0,
        residual_trace=(math.sqrt(seed_sq), math.sqrt(final_sq)),
    )
    return weights, state
