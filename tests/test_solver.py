"""Design matrix assembly, batch least squares, and the recursive update."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ringsynth
from ringsynth import solver
from ringsynth.cli import BUNDLED_EXAMPLES, bundled_config_path
from ringsynth.config import load_config_file, resolve_config
from ringsynth.errors import DomainError, SingularSystemError
from ringsynth.geometry import RingGeometry, Weights, uniform_half_wavelength_geometry
from ringsynth.sampling import (
    SampleSet,
    build_sample_set,
    effective_total_count,
    midpoint_abscissas,
)
from ringsynth.solver import (
    DesignMatrix,
    SolverState,
    _back_substitute,
    _retriangularize,
    _ring_block,
    _row_chunks,
    _weights_from_vector,
    build_design_matrix,
    rls_absorb,
    solve_batch,
    synthesize,
)
from ringsynth.specialfn import bessel_j0_grid
from ringsynth.targets import TargetPattern, equi_ripple, flat_top


def weights_vector(w: Weights, has_center: bool = True) -> np.ndarray:
    return np.array(w.rings + ((w.center,) if has_center else ()))


def batch_state(x: np.ndarray, info: np.ndarray, absorbed: int = 0) -> SolverState:
    """Recursive state seeded from ``solve_batch``'s solution (center last) and [R z]."""
    return SolverState(
        estimate=_weights_from_vector(x, x.size - 1), r_factor=info[:, :-1],
        samples_absorbed=absorbed, passes_completed=0, residual_trace=(0.0,),
    )


def random_seed(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.standard_normal((3 * n, n))
    x = rng.standard_normal(n)
    return solve_batch(np.column_stack((a, a @ x + 0.01 * rng.standard_normal(3 * n))), True)[:2]


def random_state(rng, n: int) -> SolverState:
    return batch_state(*random_seed(rng, n), absorbed=3 * n)


def retriangularized(info: np.ndarray, rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """[R z] with the rows [A b] absorbed, by ``_retriangularize`` on copies of both."""
    absorbed = info.copy()
    _retriangularize(absorbed, np.column_stack((rows, rhs)))
    return absorbed


def gram_error(absorbed, info, rows, rhs) -> float:
    """Relative Gramian gap of an absorbed [R z] to one dense QR of the stacked system."""
    n = info.shape[0]
    dense = np.linalg.qr(np.vstack((info, np.column_stack((rows, rhs)))), mode="r")[:n]
    want = dense.T @ dense
    return np.linalg.norm(absorbed.T @ absorbed - want) / np.linalg.norm(want)


def well_conditioned_upper(rng, n: int) -> np.ndarray:
    # the R of a 2n x n Gaussian matrix has a condition number near 6
    return np.linalg.qr(rng.standard_normal((2 * n, n)), mode="r")


class TestBuildDesignMatrix:
    def test_shape_for_nine_rings(self):
        geom = uniform_half_wavelength_geometry(9)
        matrix = build_design_matrix(geom, midpoint_abscissas(16))
        assert matrix.entries.shape == (16, 10)
        assert matrix.entries.shape[1] == geom.column_count

    def test_boresight_row(self):
        geom = uniform_half_wavelength_geometry(9)
        matrix = build_design_matrix(geom, [0.0])
        expected = list(geom.elements_per_ring) + [1.0]
        assert np.allclose(matrix.entries[0], expected, atol=1e-15)

    def test_entries_match_scalar_recomputation(self):
        geom = uniform_half_wavelength_geometry(6)
        abscissas = (0.11, 0.47, 0.83)
        matrix = build_design_matrix(geom, abscissas)
        k = geom.wavenumber
        for m, u in enumerate(abscissas):
            for n, (radius, count) in enumerate(zip(geom.radii, geom.elements_per_ring)):
                expected = count * bessel_j0_grid(k * radius * u)
                assert matrix.entries[m, n] == pytest.approx(expected, abs=1e-12)
            assert matrix.entries[m, -1] == 1.0

    @pytest.mark.parametrize("n_rings", [1, 500])
    def test_center_column_is_exactly_one(self, n_rings):
        # the center is the ring (0, 1) inside the ring block, so its column
        # is J0(k * 0 * u), which must be exactly 1, at u = -0.0 too
        u = np.concatenate([np.linspace(-1.0, 1.0, 2001), [0.0, -0.0]])
        matrix = build_design_matrix(uniform_half_wavelength_geometry(n_rings), u)
        assert np.array_equal(matrix.entries[:, -1], np.ones_like(u))

    def test_peak_memory_is_the_matrix(self):
        # J0 fills the one block, center column included, in place; a second
        # basis-sized array, such as a copy with a separate center, doubles the peak
        geom = uniform_half_wavelength_geometry(500)
        u = midpoint_abscissas(effective_total_count(geom))
        tracemalloc.start()
        try:
            matrix = build_design_matrix(geom, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * matrix.entries.nbytes

    def test_no_center_column(self):
        geom = RingGeometry(1.0, (0.5, 1.0), (6, 13), has_center_element=False)
        matrix = build_design_matrix(geom, (0.3, 0.6, 0.9))
        assert matrix.entries.shape == (3, 2)
        assert matrix.entries.shape[1] == geom.column_count

    def test_rejects_empty(self):
        geom = uniform_half_wavelength_geometry(2)
        with pytest.raises(DomainError):
            build_design_matrix(geom, [])

    def test_rejects_complex_abscissas(self):
        # a float cast would build the rows at the real parts of u
        geom = uniform_half_wavelength_geometry(2)
        with pytest.raises(DomainError):
            build_design_matrix(geom, np.array([0.1 + 0.5j, 0.2]))


@st.composite
def panelled_blocks(draw):
    """A ring geometry, abscissas and a J0 panel size for ``_ring_block``.

    Abscissas come unsorted, of either sign and with zeros; gaps up to 30
    wavelengths reach x ~ 2000.  The tiny wavelength gives k * r ~ 1e201,
    with abscissas scaled down to match, plus a few far smaller and far
    larger ones.  Small panel sizes split even a small block many ways.
    """
    n_rings = draw(st.integers(1, 12))
    radii = np.cumsum(draw(st.lists(st.floats(0.05, 30.0), min_size=n_rings, max_size=n_rings)))
    counts = draw(st.lists(st.integers(1, 60), min_size=n_rings, max_size=n_rings))
    wavelength = draw(st.sampled_from([1.0, 1e-200]))
    geom = RingGeometry(wavelength, tuple(radii), tuple(counts), draw(st.booleans()))
    u = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=1, max_size=120
    ))) * wavelength
    if wavelength != 1.0:
        u = np.concatenate([u, draw(st.lists(st.sampled_from([1e-300, -1e-250, 1e-190, 0.5])))])
    return geom, u, draw(st.sampled_from([1, 5, 64, 32768]))


class TestRingBlockPanels:
    """The ring block takes Hankel columns from products and the rest elementwise."""

    @given(panelled_blocks())
    def test_matches_elementwise_j0(self, case):
        geom, u, panel = case
        with patch.object(solver, "_J0_PANEL", panel), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            block = _ring_block(geom, u)
        radii = geom.radii + ((0.0,) if geom.has_center_element else ())
        counts = np.array(geom.elements_per_ring + ((1,) if geom.has_center_element else ()))
        x = np.multiply.outer(u, np.array(radii)) * geom.wavenumber
        ref = bessel_j0_grid(x) * counts
        # beyond 1e-15 the two differ only where the cosine's argument, rounded
        # to x's ulp, lands one ulp apart: J0'(x) ulp(x) < ulp(x) / sqrt(x)
        ax = np.abs(x)
        tol = counts * (1e-15 + np.spacing(ax) / np.sqrt(np.maximum(ax, 8.0)))
        assert np.all(np.abs(block - ref) <= tol)

    @given(panelled_blocks())
    def test_chunks_concatenate_to_one_block(self, case):
        # chunks start on J0 panel edges, so each panel keeps its rows and
        # its smallest |u|, and with it every bit of its Hankel products
        geom, u, panel = case
        with patch.object(solver, "_J0_PANEL", panel), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            whole = _ring_block(geom, u)
            chunks = [_ring_block(geom, u[rows]) for rows in _row_chunks(len(u), whole.shape[1])]
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_solver_chunks_make_one_block_per_half(self):
        # the 500-ring sample set as synthesize consumes it, batch half
        # first: two chunks a half, none across the split, and each half's
        # chunks hold one block of that half
        geom = uniform_half_wavelength_geometry(500)
        u = midpoint_abscissas(effective_total_count(geom))
        halves = (u[0::2], u[1::2])
        chunks = _row_chunks(len(u), geom.column_count, len(halves[0]))
        assert [(r.start, r.stop) for r in chunks] == [
            (0, 520), (520, 998), (998, 1518), (1518, 1996)
        ]
        blocks = [_ring_block(geom, np.concatenate(halves)[r]) for r in chunks]
        for half, parts in zip(halves, (blocks[:2], blocks[2:])):
            assert np.array_equal(np.concatenate(parts), _ring_block(geom, half))

    def test_rows_of_one_chunk_are_one_slice_whatever_the_split(self):
        # a small problem makes one ring-block call; no rows make one empty
        # slice, so the block rejects them
        assert _row_chunks(1000, 10, 500) == [slice(0, 1000)]
        assert _row_chunks(0, 10) == [slice(0, 0)]

    def test_block_bytes_do_not_depend_on_blas_threads(self):
        # the products stay panel-sized; a whole-block product may split
        # differently across BLAS threads and round differently
        script = (
            "import hashlib, numpy as np\n"
            "from ringsynth.geometry import uniform_half_wavelength_geometry as g\n"
            "from ringsynth.sampling import effective_total_count as n, midpoint_abscissas as m\n"
            "from ringsynth.solver import _ring_block\n"
            "geom = g(500)\n"
            "for u in (m(n(geom)), np.linspace(-1.0, 1.0, 2001)[1000:]):\n"
            "    print(hashlib.sha256(_ring_block(geom, u).tobytes()).hexdigest())\n"
        )
        src = str(Path(ringsynth.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            digests.append(result.stdout)
        assert digests[0] == digests[1]
        assert len(digests[0].split()) == 2


class TestSolveBatch:
    def test_ones_column_returns_mean(self, inv_gramian):
        x, info, _ = solve_batch(np.column_stack((np.ones((5, 1)), [3.0] * 5)), True)
        assert x == pytest.approx([3.0], abs=1e-14)
        assert x.shape == (1,)
        assert inv_gramian(batch_state(x, info))[0, 0] == pytest.approx(0.2, abs=1e-14)

    def test_recovers_consistent_system(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 8))
        x_true = rng.standard_normal(8)
        got, _, _ = solve_batch(np.column_stack((a, a @ x_true)), True)
        assert np.linalg.norm(got - x_true) <= 1e-10 * np.linalg.norm(x_true)

    def test_matches_normal_equations_oracle(self, inv_gramian):
        # extended-precision normal equations as an independent route
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal(20)
        al = a.astype(np.longdouble)
        bl = b.astype(np.longdouble)
        x_oracle = np.linalg.solve((al.T @ al).astype(float), (al.T @ bl).astype(float))
        got, info, _ = solve_batch(np.column_stack((a, b)), True)
        assert np.linalg.norm(got - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)
        p = inv_gramian(batch_state(got, info))
        p_oracle = np.linalg.inv(a.T @ a)
        assert np.max(np.abs(p - p_oracle)) <= 1e-8 * np.max(np.abs(p_oracle))

    def test_rejects_complex_input(self):
        # a float cast would solve for the real parts of rhs or matrix
        with pytest.raises(DomainError):
            solve_batch(np.column_stack((np.ones((4, 1)), np.array([1 + 1j, 1, 1, 1]))), True)
        with pytest.raises(DomainError):
            DesignMatrix(np.ones((4, 1)) + 1j)

    def test_rejects_underdetermined(self):
        with pytest.raises(DomainError):
            solve_batch(np.column_stack((np.ones((2, 3)), [1.0, 2.0])), True)

    def test_singular_column_named(self):
        geom = RingGeometry(
            1.0, (0.5, 0.5 * (1.0 + 1e-14), 1.5), (6, 6, 19), has_center_element=True
        )
        matrix = build_design_matrix(geom, midpoint_abscissas(12))
        with pytest.raises(SingularSystemError) as err:
            solve_batch(np.column_stack((matrix.entries, [1.0] * 12)), geom.has_center_element)
        assert err.value.column_label.startswith("ring")

    @pytest.mark.parametrize("has_center, label", [(True, "center"), (False, "ring 4")])
    def test_singular_last_column_label(self, has_center, label):
        # the last column repeats the first, so it is the rank-deficient one
        rng = np.random.default_rng(15)
        a = rng.standard_normal((10, 4))
        a[:, 3] = a[:, 0]
        with pytest.raises(SingularSystemError) as err:
            solve_batch(np.column_stack((a, rng.standard_normal(10))), has_center)
        assert err.value.column_index == 3
        assert err.value.column_label == label
        assert str(err.value) == (
            f"design matrix is numerically rank deficient at column 3 ({label})"
        )

    def test_singular_ring_column_beside_a_center(self):
        # only the last column is the center; a repeated ring is named as a ring
        rng = np.random.default_rng(16)
        a = rng.standard_normal((10, 3))
        a[:, 1] = a[:, 0]
        a[:, 2] = 1.0
        with pytest.raises(SingularSystemError) as err:
            solve_batch(np.column_stack((a, rng.standard_normal(10))), True)
        assert (err.value.column_index, err.value.column_label) == (1, "ring 2")

    def test_inverse_gramian_symmetric_positive_definite(self, inv_gramian):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((15, 4))
        augmented = np.column_stack((a, rng.standard_normal(15)))
        p = inv_gramian(batch_state(*solve_batch(augmented, True)[:2]))
        assert np.max(np.abs(p - p.T)) <= 1e-10
        np.linalg.cholesky(p)

    def test_information_array_factors_the_system(self):
        # [R z]: R upper triangular, R^T R = A^T A, and z^T z plus the squared
        # residual is b^T b (z = Q^T b)
        rng = np.random.default_rng(14)
        a = rng.standard_normal((15, 4))
        b = rng.standard_normal(15)
        x, info, _ = solve_batch(np.column_stack((a, b)), True)
        r, z = info[:, :-1], info[:, -1]
        assert info.shape == (4, 5)
        assert np.array_equal(r, np.triu(r))
        assert np.max(np.abs(r.T @ r - a.T @ a)) <= 1e-13 * np.max(np.abs(a.T @ a))
        residual = b - a @ x
        assert z @ z + residual @ residual == pytest.approx(b @ b, rel=1e-13)


    @pytest.mark.parametrize("rows", [4, 15])
    def test_residual_is_the_factor_row_below_r(self, rows):
        # rho = ||A x - b|| is the last entry of the factor's row n + 1; a
        # square system has no such row, solves exactly and reports 0
        rng = np.random.default_rng(rows)
        a = rng.standard_normal((rows, 4))
        b = rng.standard_normal(rows)
        x, info, rho = solve_batch(np.column_stack((a, b)), True)
        assert info.shape == (4, 5)
        if rows == 4:
            assert rho == 0.0
            assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
        else:
            assert rho == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-13)


class TestRlsAbsorb:
    def test_consistent_row_leaves_estimate(self, inv_gramian):
        rng = np.random.default_rng(4)
        state = random_state(rng, 5)
        row = rng.standard_normal(5)
        x = weights_vector(state.estimate)
        value = float(row @ x)
        updated = rls_absorb(state, row, value)
        assert weights_vector(updated.estimate) == pytest.approx(x, abs=1e-15)
        # P still contracts on consistent data
        assert np.trace(inv_gramian(updated)) < np.trace(inv_gramian(state))

    def test_zero_row_changes_nothing(self, inv_gramian):
        rng = np.random.default_rng(5)
        state = random_state(rng, 4)
        updated = rls_absorb(state, np.zeros(4), 7.7)
        assert weights_vector(updated.estimate) == pytest.approx(
            weights_vector(state.estimate), abs=0
        )
        assert np.array_equal(inv_gramian(updated), inv_gramian(state))

    def test_absorbing_all_rows_matches_full_batch(self):
        # interleaved batch seed (as the pipeline splits), incremental rows
        # absorbed in shuffled order
        rng = np.random.default_rng(6)
        geom = uniform_half_wavelength_geometry(7)
        abscissas = midpoint_abscissas(40)
        matrix = build_design_matrix(geom, abscissas)
        b = rng.standard_normal(40)

        head = np.column_stack((matrix.entries[0::2], b[0::2]))
        state = batch_state(*solve_batch(head, geom.has_center_element)[:2], absorbed=20)
        order = rng.permutation(np.arange(1, 40, 2))
        for idx in order:
            state = rls_absorb(state, matrix.entries[idx], b[idx])

        want, _, _ = solve_batch(np.column_stack((matrix.entries, b)), geom.has_center_element)
        got = weights_vector(state.estimate)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_duplicate_consistent_row_no_drift(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 5)
        row = rng.standard_normal(5)
        value = float(row @ weights_vector(state.estimate))
        once = rls_absorb(state, row, value)
        value_again = float(row @ weights_vector(once.estimate))
        twice = rls_absorb(once, row, value_again)
        drift = np.linalg.norm(
            weights_vector(twice.estimate) - weights_vector(once.estimate)
        )
        assert drift <= 1e-12

    def test_symmetry_and_definiteness_after_every_step(self, inv_gramian):
        rng = np.random.default_rng(8)
        state = random_state(rng, 6)
        for _ in range(30):
            row = rng.standard_normal(6)
            state = rls_absorb(state, row, float(rng.standard_normal()))
            p = inv_gramian(state)
            assert np.max(np.abs(p - p.T)) <= 1e-10
            np.linalg.cholesky(p)

    def test_rejects_non_finite(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, 3)
        with pytest.raises(DomainError):
            rls_absorb(state, np.array([1.0, math.nan, 0.0]), 1.0)
        with pytest.raises(DomainError):
            rls_absorb(state, np.ones(3), math.inf)

    def test_rejects_wrong_length(self):
        rng = np.random.default_rng(10)
        state = random_state(rng, 3)
        with pytest.raises(DomainError):
            rls_absorb(state, np.ones(5), 1.0)

    def test_rejects_complex_estimate(self):
        # no complex estimate can be built, Python or numpy; float() would
        # keep a numpy complex scalar's real part with only a warning
        rng = np.random.default_rng(12)
        estimate = random_state(rng, 3).estimate
        rings = estimate.rings
        for value in (rings[0] + 1e-3j, np.complex128(1 + 1j), np.complex64(rings[0])):
            with pytest.raises(DomainError):
                replace(estimate, rings=(value,) + rings[1:])
            with pytest.raises(DomainError):
                replace(estimate, center=value)


class TestRetriangularize:
    @pytest.mark.parametrize(
        "n, k", [(6, 1), (6, 4), (6, 19), (65, 1), (65, 70)],
        ids=["1", "4", "19", "65-columns-1", "65-columns-70"],
    )
    def test_blocks_match_successive_rank_one_updates(self, n, k, inv_gramian):
        # 6 columns: one 6-column panel absorbing 1, 4 or 19 rows; 65
        # columns: one 64-column panel, then a 1-column panel with z trailing
        rng = np.random.default_rng(13)
        x_seed, info = random_seed(rng, n)
        state = batch_state(x_seed, info)
        rows = rng.standard_normal((k, n))
        rhs = rng.standard_normal(k)
        absorbed = retriangularized(info, rows, rhs)
        x = _back_substitute(absorbed[:, :-1], absorbed[:, -1])
        p = inv_gramian(batch_state(x_seed, absorbed))
        for row, value in zip(rows, rhs):
            state = rls_absorb(state, row, value)
        want_x = weights_vector(state.estimate)
        want_p = inv_gramian(state)
        assert np.linalg.norm(x - want_x) <= 1e-12 * np.linalg.norm(want_x)
        assert np.linalg.norm(p - want_p) <= 1e-12 * np.linalg.norm(want_p)
        assert np.array_equal(p, p.T)
        np.linalg.cholesky(p)

    @pytest.mark.parametrize("n", [1, 6, 63, 64, 65, 129, 201])
    @pytest.mark.parametrize("rows", ["none", "one", "panel", "tall"])
    def test_matches_dense_qr_and_lstsq(self, n, rows):
        # panel edges: one narrow panel, one full panel, a full panel then a
        # 1-column one, and several full panels then a partial one
        m = {"none": 0, "one": 1, "panel": 64, "tall": 2 * n + 3}[rows]
        rng = np.random.default_rng(n + m)
        seed_rows = rng.standard_normal((3 * n, n))
        seed_rhs = seed_rows @ rng.standard_normal(n) + 0.01 * rng.standard_normal(3 * n)
        _, info, _ = solve_batch(np.column_stack((seed_rows, seed_rhs)), True)
        new_rows, new_rhs = rng.standard_normal((m, n)), rng.standard_normal(m)
        absorbed = retriangularized(info, new_rows, new_rhs)
        assert absorbed.shape == info.shape
        assert np.array_equal(absorbed, np.triu(absorbed))
        assert gram_error(absorbed, info, new_rows, new_rhs) <= 1e-14
        x = _back_substitute(absorbed[:, :-1], absorbed[:, -1])
        want_x = np.linalg.lstsq(
            np.vstack((seed_rows, new_rows)), np.concatenate((seed_rhs, new_rhs)), rcond=None
        )[0]
        assert np.linalg.norm(x - want_x) <= 1e-13 * np.linalg.norm(want_x)

    @pytest.mark.parametrize("n", [6, 129])
    def test_zero_rows_leave_the_array_unchanged(self, n):
        # no rows or all-zero rows: every reflector has tau = 0, so the copy
        # comes back bit for bit
        rng = np.random.default_rng(n)
        _, info = random_seed(rng, n)
        for m in (0, n + 5):
            assert np.array_equal(retriangularized(info, np.zeros((m, n)), np.zeros(m)), info)

    @pytest.mark.parametrize("zero_columns", [1, 20, 64])
    def test_rows_zero_in_leading_columns_match_dense_qr(self, zero_columns):
        # each leading zero column gives a reflector with tau = 0, the
        # identity and a zero column of the panel's T, so R's rows for those
        # columns come back unchanged; with all 64 zero the whole first
        # panel is the identity
        rng = np.random.default_rng(zero_columns)
        _, info = random_seed(rng, 129)
        rows, rhs = rng.standard_normal((40, 129)), rng.standard_normal(40)
        rows[:, :zero_columns] = 0.0
        absorbed = retriangularized(info, rows, rhs)
        assert gram_error(absorbed, info, rows, rhs) <= 1e-14
        assert np.array_equal(absorbed[:zero_columns], info[:zero_columns])


class TestBackSubstitute:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 501])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_matches_general_solve(self, n, columns):
        # block edges at 64: below, at and above one block, a partial top
        # block, and the 500-ring size
        rng = np.random.default_rng(n)
        r = well_conditioned_upper(rng, n)
        z = rng.standard_normal(n if columns is None else (n, columns))
        got = _back_substitute(r, z)
        want = np.linalg.solve(r, z)
        assert got.shape == z.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_leaves_the_right_hand_side_alone(self):
        rng = np.random.default_rng(16)
        r = well_conditioned_upper(rng, 70)
        z = rng.standard_normal(70)
        kept = z.copy()
        _back_substitute(r, z)
        assert np.array_equal(z, kept)


def manufactured_target(geom, weights_vec) -> TargetPattern:
    """Exact pattern of known weights, normalized by its scan peak."""
    k = geom.wavenumber

    def pattern(u: np.ndarray) -> np.ndarray:
        basis = bessel_j0_grid(k * np.outer(u, geom.radii)) * geom.elements_per_ring
        return basis @ weights_vec[:-1] + weights_vec[-1]

    peak = float(np.max(np.abs(pattern(np.linspace(0, 1, 2001)))))

    def signed(u: np.ndarray) -> np.ndarray:
        return pattern(u) / peak

    return TargetPattern(
        kind="manufactured",
        params={"peak": peak},
        evaluator=signed,
    )


def assert_exact_residual_trace(rings: int, total: int) -> None:
    """``residual_trace`` against 40-digit least squares on the exact-J0 system.

    Both entries are ||A x - b|| over every sample, at the batch seed and at
    the final x.  A is built like the pattern oracle, every entry from
    ``mpmath.besselj``; an error E in A, from J0 or the QR's backward error,
    moves such a residual by about ||E|| ||x||.
    """
    geom = uniform_half_wavelength_geometry(rings)
    target = flat_top(0.5, 0.2)
    abscissas = midpoint_abscissas(total)
    samples = SampleSet(abscissas, target.sample_value(abscissas))
    _, state = synthesize(geom, target, samples=samples)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        k = 2 * mpmath.pi / mpmath.mpf(geom.wavelength)
        rows = [
            [count * mpmath.besselj(0, k * mpmath.mpf(radius) * mpmath.mpf(u))
             for radius, count in zip(geom.radii, geom.elements_per_ring)] + [1]
            for u in abscissas.tolist()
        ]
        a, b = mpmath.matrix(rows), mpmath.matrix(samples.values.tolist())
        x_seed, _ = mpmath.qr_solve(
            mpmath.matrix(rows[0::2]), mpmath.matrix(samples.values[0::2].tolist())
        )
        x, final = mpmath.qr_solve(a, b)
        wanted = (mpmath.norm(a * x_seed - b), final)
        for got, want, v in zip(state.residual_trace, wanted, (x_seed, x)):
            bound = 16 * eps * (mpmath.mnorm(a, "f") * mpmath.norm(v) + mpmath.norm(b))
            assert abs(got - want) <= bound


class TestSynthesize:
    def test_recovers_manufactured_weights(self):
        rng = np.random.default_rng(11)
        geom = uniform_half_wavelength_geometry(5)
        x_true = rng.standard_normal(6)
        target = manufactured_target(geom, x_true)
        peak = float(target.params["peak"])
        w, state = synthesize(geom, target)
        got = weights_vector(w) * peak
        assert np.linalg.norm(got - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_residual_trace_non_increasing(self):
        geom = uniform_half_wavelength_geometry(9)
        _, state = synthesize(geom, flat_top(0.4, 0.12))
        trace = state.residual_trace
        assert len(trace) == state.passes_completed + 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-10

    def test_residual_trace_is_seed_then_final(self):
        assert_exact_residual_trace(rings=8, total=100)

    def test_residual_trace_with_a_square_batch(self):
        # 3 rings and a center: the 4-row batch is square, its own residual 0
        assert_exact_residual_trace(rings=3, total=8)

    def test_peak_memory_is_the_batch_augmented_system(self):
        # the rows come in chunks of whole J0 panels, so beside the batch's
        # [A b] (4.0 MB) live numpy's copy of it for the QR and a chunk or
        # two; the whole 1996 x 501 block and its two halves peaked at 20 MB
        geom = uniform_half_wavelength_geometry(500)
        target = flat_top(0.35, 0.12)
        samples = build_sample_set(geom, target)
        tracemalloc.start()
        try:
            synthesize(geom, target, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * samples.batch_count * (geom.column_count + 1) * 8

    def test_target_scaling_scales_weights_exactly(self):
        geom = uniform_half_wavelength_geometry(5)
        base = flat_top(0.4, 0.1)
        doubled = TargetPattern(
            kind=base.kind,
            params=base.params,
            evaluator=lambda u: 2.0 * base.evaluator(u),
        )
        w1, _ = synthesize(geom, base)
        w2, _ = synthesize(geom, doubled)
        assert weights_vector(w2) == pytest.approx(2.0 * weights_vector(w1), abs=0)

    def test_target_scaling_general_factor(self):
        geom = uniform_half_wavelength_geometry(5)
        base = flat_top(0.4, 0.1)
        scale = 3.7
        scaled = TargetPattern(
            kind=base.kind,
            params=base.params,
            evaluator=lambda u: scale * base.evaluator(u),
        )
        w1, _ = synthesize(geom, base)
        w2, _ = synthesize(geom, scaled)
        assert np.linalg.norm(weights_vector(w2) - scale * weights_vector(w1)) <= (
            1e-12 * scale * np.linalg.norm(weights_vector(w1))
        )

    def test_small_batch_grows_sample_set(self):
        # two tight rings: raw rule gives a square batch, which must be grown
        geom = RingGeometry(1.0, (0.5, 0.625), (6, 8))
        target = flat_top(0.5, 0.2)
        w, state = synthesize(geom, target)
        assert state.samples_absorbed >= geom.column_count + 2

    @pytest.mark.parametrize("total", [20, 21])
    def test_hand_built_set_absorbs_each_sample_once(self, total):
        geom = uniform_half_wavelength_geometry(3)
        target = flat_top(0.5, 0.2)
        abscissas = midpoint_abscissas(total)
        samples = SampleSet(abscissas, target.sample_value(np.array(abscissas)))
        _, state = synthesize(geom, target, samples=samples)
        assert state.passes_completed == 1
        assert state.samples_absorbed == samples.total_count == total

    def test_square_hand_built_batch_is_used_as_given(self):
        # 3 rings and a center: a 4-row batch half is square and solved exactly
        geom = uniform_half_wavelength_geometry(3)
        target = flat_top(0.5, 0.2)
        abscissas = midpoint_abscissas(8)
        samples = SampleSet(abscissas, target.sample_value(np.array(abscissas)))
        w, state = synthesize(geom, target, samples=samples)
        assert state.samples_absorbed == 8
        matrix = build_design_matrix(geom, abscissas)
        want = np.linalg.lstsq(matrix.entries, np.array(samples.values), rcond=None)[0]
        assert np.linalg.norm(weights_vector(w) - want) <= 1e-8 * np.linalg.norm(want)

    def test_underdetermined_hand_built_batch_raises(self):
        geom = uniform_half_wavelength_geometry(3)
        target = flat_top(0.5, 0.2)
        abscissas = midpoint_abscissas(6)
        samples = SampleSet(abscissas, target.sample_value(np.array(abscissas)))
        with pytest.raises(DomainError, match="underdetermined"):
            synthesize(geom, target, samples=samples)

    @pytest.mark.parametrize("rings", [200, 500])
    @pytest.mark.parametrize("kind", ["flat_top", "equi_ripple"])
    def test_large_array_matches_lstsq(self, rings, kind):
        geom = uniform_half_wavelength_geometry(rings)
        target = flat_top(0.35, 0.12) if kind == "flat_top" else equi_ripple(-30.0, rings)
        samples = build_sample_set(geom, target)
        w, _ = synthesize(geom, target, samples=samples)
        matrix = build_design_matrix(geom, samples.abscissas)
        want = np.linalg.lstsq(matrix.entries, np.array(samples.values), rcond=None)[0]
        got = weights_vector(w)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", BUNDLED_EXAMPLES)
    def test_bundled_weights_within_cond_eps_of_exact(self, name):
        # the exact least-squares solution of the sampled float64 system, by
        # 40-digit QR; a backward-stable solve lands within cond(A) * eps
        path = bundled_config_path(name)
        cfg, _ = resolve_config(load_config_file(path), base_dir=path.parent)
        geom = cfg.geometry
        samples = build_sample_set(
            geom, cfg.target, total_count=effective_total_count(geom, cfg.oversample)
        )
        w, _ = synthesize(geom, cfg.target, samples=samples)
        a = build_design_matrix(geom, samples.abscissas).entries
        with mpmath.workdps(40):
            exact, _ = mpmath.qr_solve(mpmath.matrix(a.tolist()), mpmath.matrix(samples.values))
            got = mpmath.matrix(weights_vector(w, geom.has_center_element).tolist())
            rel = float(mpmath.norm(got - exact) / mpmath.norm(exact))
        assert rel <= np.linalg.cond(a) * np.finfo(float).eps
