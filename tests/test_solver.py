"""Design matrix assembly, batch least squares, and the recursive update."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

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
        estimate=_weights_from_vector(x, True), r_factor=info[:, :-1],
        samples_absorbed=absorbed, passes_completed=0, residual_trace=(0.0,),
    )


def random_seed(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.standard_normal((3 * n, n))
    x = rng.standard_normal(n)
    return solve_batch(DesignMatrix(a, True), a @ x + 0.01 * rng.standard_normal(3 * n))


def random_state(rng, n: int) -> SolverState:
    return batch_state(*random_seed(rng, n), absorbed=3 * n)


def well_conditioned_upper(rng, n: int) -> np.ndarray:
    # the R of a 2n x n Gaussian matrix has a condition number near 6
    return np.linalg.qr(rng.standard_normal((2 * n, n)), mode="r")


class TestBuildDesignMatrix:
    def test_shape_for_nine_rings(self):
        geom = uniform_half_wavelength_geometry(9)
        matrix = build_design_matrix(geom, midpoint_abscissas(16))
        assert matrix.entries.shape == (16, 10)
        assert matrix.has_center

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

    def test_no_center_column(self):
        geom = RingGeometry(1.0, (0.5, 1.0), (6, 13), has_center_element=False)
        matrix = build_design_matrix(geom, (0.3, 0.6, 0.9))
        assert matrix.entries.shape == (3, 2)
        assert not matrix.has_center

    def test_rejects_empty(self):
        geom = uniform_half_wavelength_geometry(2)
        with pytest.raises(DomainError):
            build_design_matrix(geom, [])

    def test_rejects_complex_abscissas(self):
        # a float cast would build the rows at the real parts of u
        geom = uniform_half_wavelength_geometry(2)
        with pytest.raises(DomainError):
            build_design_matrix(geom, np.array([0.1 + 0.5j, 0.2]))


class TestSolveBatch:
    def test_ones_column_returns_mean(self, inv_gramian):
        matrix = DesignMatrix(np.ones((5, 1)), True)
        x, info = solve_batch(matrix, [3.0] * 5)
        assert x == pytest.approx([3.0], abs=1e-14)
        assert x.shape == (1,)
        assert inv_gramian(batch_state(x, info))[0, 0] == pytest.approx(0.2, abs=1e-14)

    def test_recovers_consistent_system(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 8))
        x_true = rng.standard_normal(8)
        got, _ = solve_batch(DesignMatrix(a, True), a @ x_true)
        assert np.linalg.norm(got - x_true) <= 1e-10 * np.linalg.norm(x_true)

    def test_matches_normal_equations_oracle(self, inv_gramian):
        # extended-precision normal equations as an independent route
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal(20)
        al = a.astype(np.longdouble)
        bl = b.astype(np.longdouble)
        x_oracle = np.linalg.solve((al.T @ al).astype(float), (al.T @ bl).astype(float))
        got, info = solve_batch(DesignMatrix(a, True), b)
        assert np.linalg.norm(got - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)
        p = inv_gramian(batch_state(got, info))
        p_oracle = np.linalg.inv(a.T @ a)
        assert np.max(np.abs(p - p_oracle)) <= 1e-8 * np.max(np.abs(p_oracle))

    def test_rejects_complex_input(self):
        # a float cast would solve for the real parts of rhs or matrix
        with pytest.raises(DomainError):
            solve_batch(DesignMatrix(np.ones((4, 1)), True), np.array([1 + 1j, 1, 1, 1]))
        with pytest.raises(DomainError):
            DesignMatrix(np.ones((4, 1)) + 1j, True)

    def test_rejects_underdetermined(self):
        matrix = DesignMatrix(np.ones((2, 3)), True)
        with pytest.raises(DomainError):
            solve_batch(matrix, [1.0, 2.0])

    def test_singular_column_named(self):
        geom = RingGeometry(
            1.0, (0.5, 0.5 * (1.0 + 1e-14), 1.5), (6, 6, 19), has_center_element=True
        )
        matrix = build_design_matrix(geom, midpoint_abscissas(12))
        with pytest.raises(SingularSystemError) as err:
            solve_batch(matrix, [1.0] * 12)
        assert err.value.column_label.startswith("ring")

    @pytest.mark.parametrize("has_center, label", [(True, "center"), (False, "ring 4")])
    def test_singular_last_column_label(self, has_center, label):
        # the last column repeats the first, so it is the rank-deficient one
        rng = np.random.default_rng(15)
        a = rng.standard_normal((10, 4))
        a[:, 3] = a[:, 0]
        with pytest.raises(SingularSystemError) as err:
            solve_batch(DesignMatrix(a, has_center), rng.standard_normal(10))
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
            solve_batch(DesignMatrix(a, True), rng.standard_normal(10))
        assert (err.value.column_index, err.value.column_label) == (1, "ring 2")

    def test_inverse_gramian_symmetric_positive_definite(self, inv_gramian):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((15, 4))
        p = inv_gramian(batch_state(*solve_batch(DesignMatrix(a, True), rng.standard_normal(15))))
        assert np.max(np.abs(p - p.T)) <= 1e-10
        np.linalg.cholesky(p)

    def test_information_array_factors_the_system(self):
        # [R z]: R upper triangular, R^T R = A^T A, and z^T z plus the squared
        # residual is b^T b (z = Q^T b)
        rng = np.random.default_rng(14)
        a = rng.standard_normal((15, 4))
        b = rng.standard_normal(15)
        x, info = solve_batch(DesignMatrix(a, True), b)
        r, z = info[:, :-1], info[:, -1]
        assert info.shape == (4, 5)
        assert np.array_equal(r, np.triu(r))
        assert np.max(np.abs(r.T @ r - a.T @ a)) <= 1e-13 * np.max(np.abs(a.T @ a))
        residual = b - a @ x
        assert z @ z + residual @ residual == pytest.approx(b @ b, rel=1e-13)


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

        head = DesignMatrix(matrix.entries[0::2], matrix.has_center)
        state = batch_state(*solve_batch(head, b[0::2]), absorbed=20)
        order = rng.permutation(np.arange(1, 40, 2))
        for idx in order:
            state = rls_absorb(state, matrix.entries[idx], b[idx])

        want, _ = solve_batch(matrix, b)
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
    @pytest.mark.parametrize("k", [1, 4, 19])
    def test_blocks_match_successive_rank_one_updates(self, k, inv_gramian):
        # 6 columns, so blocks of 6: one row, a partial block, and three full
        # blocks plus a partial one
        rng = np.random.default_rng(13)
        x_seed, info = random_seed(rng, 6)
        state = batch_state(x_seed, info)
        rows = rng.standard_normal((k, 6))
        rhs = rng.standard_normal(k)
        absorbed = _retriangularize(info, rows, rhs)
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
        geom = uniform_half_wavelength_geometry(4)
        target = flat_top(0.5, 0.1)
        samples = build_sample_set(geom, target)
        w, state = synthesize(geom, target, samples=samples)
        full = build_design_matrix(geom, samples.abscissas)
        x_seed, _ = solve_batch(
            build_design_matrix(geom, samples.abscissas[0::2]), samples.values[0::2]
        )
        b = samples.values
        assert state.residual_trace == (
            np.linalg.norm(full.entries @ x_seed - b),
            np.linalg.norm(full.entries @ weights_vector(w) - b),
        )

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
