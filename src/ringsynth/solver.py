"""Linear system assembly, batch least squares, and the recursive refinement.

The pattern model is linear in the weights, so sampling the target at M0
points yields an overdetermined system A I = B, built once as one design
matrix.  The batch stage solves its even-indexed rows (the batch half of the
sample set) by orthogonal factorization and seeds the inverse Gramian
P = (A^T A)^{-1}; the recursive stage then absorbs the odd-indexed rows in
one pass of Sherman-Morrison-Woodbury block updates, each block at most as
tall as the weight count.  A one-row block is the rank-one gain update of
:func:`rls_absorb`, kept as the reference form.  Absorbing a row set either
way is algebraically identical to batch least squares over the same rows,
which is the correctness property the test suite leans on.

Targets here are real valued and the basis is real, so the solver works in
real arithmetic and rejects a complex estimate; weights stay complex-capable
at the boundary for forward pattern evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, SingularSystemError
from .geometry import RingGeometry, Weights
from .sampling import SampleSet, build_sample_set, effective_total_count
from .specialfn import bessel_j0_grid
from .targets import TargetPattern

_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class DesignMatrix:
    """Dense sample-by-weight coefficient matrix with labeled columns.

    Ring columns hold N_n * J0(k * r_n * u_m); a trailing all-ones column
    represents the center element when the geometry has one.
    """

    entries: NDArray[np.float64]
    column_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise DomainError(f"design matrix must be 2-D, got shape {entries.shape}")
        if entries.shape[1] != len(self.column_labels):
            raise DomainError(
                f"{entries.shape[1]} columns but {len(self.column_labels)} labels"
            )

    @property
    def row_count(self) -> int:
        return int(self.entries.shape[0])

    @property
    def column_count(self) -> int:
        return int(self.entries.shape[1])


@dataclass(frozen=True)
class SolverState:
    """Estimate, inverse Gramian, and bookkeeping for the recursive stage."""

    estimate: Weights
    inv_gramian: NDArray[np.float64]
    samples_absorbed: int
    passes_completed: int
    residual_trace: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inv_gramian", np.asarray(self.inv_gramian, dtype=float))


def _column_labels(geom: RingGeometry) -> tuple[str, ...]:
    labels = tuple(f"ring {n}" for n in range(1, geom.n_rings + 1))
    if geom.has_center_element:
        labels += ("center",)
    return labels


def build_design_matrix(geom: RingGeometry, abscissas: Sequence[float]) -> DesignMatrix:
    """Coefficient matrix for the given sample directions."""
    if len(abscissas) == 0:
        raise DomainError("design matrix needs at least one sample abscissa")
    u = np.asarray(abscissas, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("sample abscissas must be finite")
    counts = np.asarray(geom.elements_per_ring, dtype=float)
    radii = np.asarray(geom.radii, dtype=float)
    ring_block = bessel_j0_grid(geom.wavenumber * np.outer(u, radii))
    if geom.has_center_element:
        entries = np.ones((len(u), geom.column_count))
        np.multiply(ring_block, counts, out=entries[:, :-1])
    else:
        entries = np.multiply(ring_block, counts, out=ring_block)
    return DesignMatrix(entries=entries, column_labels=_column_labels(geom))


def _weights_from_vector(x: NDArray[np.float64], labels: tuple[str, ...]) -> Weights:
    has_center = labels and labels[-1] == "center"
    if has_center:
        return Weights(center=complex(x[-1]), rings=tuple(complex(v) for v in x[:-1]))
    return Weights(center=0j, rings=tuple(complex(v) for v in x))


def _vector_from_weights(w: Weights, n_columns: int) -> NDArray[np.float64]:
    if n_columns == len(w.rings) + 1:
        parts = list(w.rings) + [w.center]
    elif n_columns == len(w.rings):
        parts = list(w.rings)
    else:
        raise DomainError(
            f"row of length {n_columns} does not fit weights with {len(w.rings)} rings"
        )
    if any(p.imag != 0.0 for p in parts):
        raise DomainError("the real-valued solver cannot take a complex estimate")
    return np.array([float(p.real) for p in parts])


def solve_batch(
    matrix: DesignMatrix, rhs: Sequence[float]
) -> tuple[Weights, NDArray[np.float64]]:
    """Least-squares weights and inverse Gramian for a sample block.

    Solves via QR, and forms P = (A^T A)^{-1} from the inverse triangular
    factor rather than the squared normal matrix.  A condition estimate
    above 1e12 raises :class:`SingularSystemError` naming the offending
    column.
    """
    a = matrix.entries
    b = np.asarray(rhs, dtype=float)
    if a.shape[0] < a.shape[1]:
        raise DomainError(
            f"system with {a.shape[0]} rows and {a.shape[1]} columns is underdetermined"
        )
    if b.shape != (a.shape[0],):
        raise DomainError(f"rhs length {b.shape} does not match {a.shape[0]} rows")
    if not np.all(np.isfinite(b)):
        raise DomainError("rhs must be finite")

    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    worst = int(np.argmin(diag))
    if diag[worst] == 0.0 or diag.max() / diag[worst] > _CONDITION_LIMIT:
        label = matrix.column_labels[worst]
        raise SingularSystemError(
            f"design matrix is numerically rank deficient at column {worst} ({label})",
            column_index=worst,
            column_label=label,
        )
    x = np.linalg.solve(r, q.T @ b)
    r_inv = np.linalg.solve(r, np.eye(r.shape[0]))
    p = r_inv @ r_inv.T
    p = 0.5 * (p + p.T)
    return _weights_from_vector(x, matrix.column_labels), p


def rls_absorb(state: SolverState, row: Sequence[float], rhs_value: float) -> SolverState:
    """Absorb one sample row into the estimate via the rank-one gain update.

    gain K = P a / (a^T P a + 1); the estimate moves by K times the
    innovation (rhs minus prediction) and P contracts by K a^T P, with an
    explicit re-symmetrization to stop round-off drift.
    """
    a = np.asarray(row, dtype=float)
    rhs_value = float(rhs_value)
    if a.ndim != 1:
        raise DomainError(f"row must be 1-D, got shape {a.shape}")
    if not (np.all(np.isfinite(a)) and math.isfinite(rhs_value)):
        raise DomainError("row and rhs value must be finite")
    p = state.inv_gramian
    if a.shape[0] != p.shape[0]:
        raise DomainError(f"row length {a.shape[0]} does not match state size {p.shape[0]}")

    x = _vector_from_weights(state.estimate, a.shape[0])
    pa = p @ a
    gain = pa / (a @ pa + 1.0)
    innovation = rhs_value - a @ x
    x_new = x + gain * innovation
    p_new = p - np.outer(gain, pa)
    p_new = 0.5 * (p_new + p_new.T)

    has_center = a.shape[0] == len(state.estimate.rings) + 1
    if has_center:
        weights = Weights(center=complex(x_new[-1]), rings=tuple(complex(v) for v in x_new[:-1]))
    else:
        weights = Weights(center=0j, rings=tuple(complex(v) for v in x_new))
    return replace(
        state,
        estimate=weights,
        inv_gramian=p_new,
        samples_absorbed=state.samples_absorbed + 1,
    )


def _absorb_rows(
    x: NDArray[np.float64],
    p: NDArray[np.float64],
    rows: NDArray[np.float64],
    rhs: NDArray[np.float64],
    block_size: int,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Absorb sample rows into (x, P) in Woodbury blocks of ``block_size``.

    Each block A with right-hand side b updates K = P A^T (I + A P A^T)^{-1},
    x += K (b - A x), P -= K A P, then re-symmetrizes P.  A one-row block is
    the rank-one gain of :func:`rls_absorb`.  Blocks no taller than P keep
    the inner matrix no larger than P whatever the row count.
    """
    for start in range(0, rows.shape[0], block_size):
        a = rows[start : start + block_size]
        pat = p @ a.T
        inner = a @ pat
        inner[np.diag_indices_from(inner)] += 1.0
        # the inner matrix is symmetric, so solving for K^T gives K
        gain = np.linalg.solve(inner, pat.T).T
        x = x + gain @ (rhs[start : start + block_size] - a @ x)
        p = p - gain @ pat.T
        p = 0.5 * (p + p.T)
    return x, p


def synthesize(
    geom: RingGeometry,
    target: TargetPattern,
    oversample: float = 1.0,
    samples: SampleSet | None = None,
) -> tuple[Weights, SolverState]:
    """Run the two-stage synthesis pipeline for a geometry and target.

    The batch stage solves the batch half of the sample set and seeds the
    recursive state; one pass then absorbs the incremental half in Woodbury
    blocks, which in exact arithmetic reproduces the full least-squares
    solution.  ``passes_completed`` is that one pass (0 without incremental
    rows), every sample is absorbed once, and ``residual_trace`` holds the
    seed's residual and the final one over the whole sample set.

    Without ``samples`` the set is sized by
    :func:`~ringsynth.sampling.effective_total_count` with ``oversample``; a
    caller's set whose batch half is not strictly overdetermined is rebuilt
    the same way.
    """
    n_columns = geom.column_count
    if samples is None or samples.batch_count <= n_columns:
        # A square (or smaller) batch system has no residual to average out,
        # so an undersized caller set is rebuilt by the one sizing rule.
        samples = build_sample_set(
            geom, target, total_count=effective_total_count(geom, oversample)
        )

    matrix = build_design_matrix(geom, samples.abscissas)
    rhs = np.asarray(samples.values, dtype=float)
    batch = DesignMatrix(entries=matrix.entries[0::2], column_labels=matrix.column_labels)
    batch_weights, p = solve_batch(batch, rhs[0::2])
    x_seed = _vector_from_weights(batch_weights, n_columns)
    rows = matrix.entries[1::2]
    x, p = _absorb_rows(x_seed, p, rows, rhs[1::2], n_columns)
    weights = _weights_from_vector(x, matrix.column_labels)
    state = SolverState(
        estimate=weights,
        inv_gramian=p,
        samples_absorbed=samples.total_count,
        passes_completed=1 if rows.shape[0] else 0,
        residual_trace=tuple(
            float(np.linalg.norm(matrix.entries @ v - rhs)) for v in (x_seed, x)
        ),
    )
    return weights, state
