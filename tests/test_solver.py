"""Design matrix assembly, batch least squares, and the recursive update."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ringsynth.errors import DomainError, SingularSystemError
from ringsynth.geometry import RingGeometry, Weights, uniform_half_wavelength_geometry
from ringsynth.sampling import build_sample_set, midpoint_abscissas
from ringsynth.solver import (
    DesignMatrix,
    SolverState,
    _absorb_rows,
    build_design_matrix,
    rls_absorb,
    solve_batch,
    synthesize,
)
from ringsynth.specialfn import bessel_j0
from ringsynth.targets import TargetPattern, equi_ripple, flat_top


def weights_vector(w: Weights, has_center: bool = True) -> np.ndarray:
    parts = [v.real for v in w.rings]
    if has_center:
        parts.append(w.center.real)
    return np.array(parts)


def random_state(rng, n: int) -> SolverState:
    a = rng.standard_normal((3 * n, n))
    x = rng.standard_normal(n)
    matrix = DesignMatrix(a, tuple(f"ring {i}" for i in range(1, n)) + ("center",))
    w, p = solve_batch(matrix, a @ x + 0.01 * rng.standard_normal(3 * n))
    return SolverState(
        estimate=w, inv_gramian=p, samples_absorbed=3 * n, passes_completed=0,
        residual_trace=(0.0,),
    )


class TestBuildDesignMatrix:
    def test_shape_for_nine_rings(self):
        geom = uniform_half_wavelength_geometry(9)
        matrix = build_design_matrix(geom, midpoint_abscissas(16))
        assert matrix.entries.shape == (16, 10)
        assert matrix.column_labels[-1] == "center"

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
                expected = count * bessel_j0(k * radius * u)
                assert matrix.entries[m, n] == pytest.approx(expected, abs=1e-12)
            assert matrix.entries[m, -1] == 1.0

    def test_no_center_column(self):
        geom = RingGeometry(1.0, (0.5, 1.0), (6, 13), has_center_element=False)
        matrix = build_design_matrix(geom, (0.3, 0.6, 0.9))
        assert matrix.entries.shape == (3, 2)
        assert "center" not in matrix.column_labels

    def test_rejects_empty(self):
        geom = uniform_half_wavelength_geometry(2)
        with pytest.raises(DomainError):
            build_design_matrix(geom, [])


class TestSolveBatch:
    def test_ones_column_returns_mean(self):
        matrix = DesignMatrix(np.ones((5, 1)), ("center",))
        w, p = solve_batch(matrix, [3.0] * 5)
        assert w.center == pytest.approx(3.0, abs=1e-14)
        assert w.rings == ()
        assert p[0, 0] == pytest.approx(0.2, abs=1e-14)

    def test_recovers_consistent_system(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 8))
        x_true = rng.standard_normal(8)
        labels = tuple(f"ring {i}" for i in range(1, 8)) + ("center",)
        w, _ = solve_batch(DesignMatrix(a, labels), a @ x_true)
        got = weights_vector(w)
        assert np.linalg.norm(got - x_true) <= 1e-10 * np.linalg.norm(x_true)

    def test_matches_normal_equations_oracle(self):
        # extended-precision normal equations as an independent route
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal(20)
        al = a.astype(np.longdouble)
        bl = b.astype(np.longdouble)
        x_oracle = np.linalg.solve((al.T @ al).astype(float), (al.T @ bl).astype(float))
        labels = tuple(f"ring {i}" for i in range(1, 8)) + ("center",)
        w, p = solve_batch(DesignMatrix(a, labels), b)
        got = weights_vector(w)
        assert np.linalg.norm(got - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)
        p_oracle = np.linalg.inv(a.T @ a)
        assert np.max(np.abs(p - p_oracle)) <= 1e-8 * np.max(np.abs(p_oracle))

    def test_rejects_underdetermined(self):
        matrix = DesignMatrix(np.ones((2, 3)), ("ring 1", "ring 2", "center"))
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

    def test_inverse_gramian_symmetric_positive_definite(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((15, 4))
        labels = tuple(f"ring {i}" for i in range(1, 4)) + ("center",)
        _, p = solve_batch(DesignMatrix(a, labels), rng.standard_normal(15))
        assert np.max(np.abs(p - p.T)) <= 1e-10
        np.linalg.cholesky(p)


class TestRlsAbsorb:
    def test_consistent_row_leaves_estimate(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 5)
        row = rng.standard_normal(5)
        x = weights_vector(state.estimate)
        value = float(row @ x)
        updated = rls_absorb(state, row, value)
        assert weights_vector(updated.estimate) == pytest.approx(x, abs=1e-15)
        # P still contracts on consistent data
        assert np.trace(updated.inv_gramian) < np.trace(state.inv_gramian)

    def test_zero_row_changes_nothing(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 4)
        updated = rls_absorb(state, np.zeros(4), 7.7)
        assert weights_vector(updated.estimate) == pytest.approx(
            weights_vector(state.estimate), abs=0
        )
        assert np.array_equal(updated.inv_gramian, state.inv_gramian)

    def test_absorbing_all_rows_matches_full_batch(self):
        # interleaved batch seed (as the pipeline splits), incremental rows
        # absorbed in shuffled order
        rng = np.random.default_rng(6)
        geom = uniform_half_wavelength_geometry(7)
        abscissas = midpoint_abscissas(40)
        matrix = build_design_matrix(geom, abscissas)
        b = rng.standard_normal(40)

        head = DesignMatrix(matrix.entries[0::2], matrix.column_labels)
        w, p = solve_batch(head, b[0::2])
        state = SolverState(
            estimate=w, inv_gramian=p, samples_absorbed=20,
            passes_completed=0, residual_trace=(0.0,),
        )
        order = rng.permutation(np.arange(1, 40, 2))
        for idx in order:
            state = rls_absorb(state, matrix.entries[idx], b[idx])

        w_full, _ = solve_batch(matrix, b)
        got = weights_vector(state.estimate)
        want = weights_vector(w_full)
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

    def test_symmetry_and_definiteness_after_every_step(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 6)
        for _ in range(30):
            row = rng.standard_normal(6)
            state = rls_absorb(state, row, float(rng.standard_normal()))
            p = state.inv_gramian
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
        rng = np.random.default_rng(12)
        state = random_state(rng, 3)
        rings = state.estimate.rings
        estimate = replace(state.estimate, rings=(rings[0] + 1e-3j,) + rings[1:])
        complex_state = replace(state, estimate=estimate)
        with pytest.raises(DomainError):
            rls_absorb(complex_state, np.ones(3), 1.0)


class TestAbsorbRows:
    @pytest.mark.parametrize("k", [1, 4, 19])
    def test_blocks_match_successive_rank_one_updates(self, k):
        # block size 6: one row, a partial block, and three full blocks plus
        # a partial one
        rng = np.random.default_rng(13)
        state = random_state(rng, 6)
        rows = rng.standard_normal((k, 6))
        rhs = rng.standard_normal(k)
        x, p = _absorb_rows(
            weights_vector(state.estimate), state.inv_gramian, rows, rhs, block_size=6
        )
        for row, value in zip(rows, rhs):
            state = rls_absorb(state, row, value)
        want_x = weights_vector(state.estimate)
        want_p = state.inv_gramian
        assert np.linalg.norm(x - want_x) <= 1e-12 * np.linalg.norm(want_x)
        assert np.linalg.norm(p - want_p) <= 1e-12 * np.linalg.norm(want_p)
        assert np.array_equal(p, p.T)
        np.linalg.cholesky(p)


def manufactured_target(geom, weights_vec) -> TargetPattern:
    """Exact pattern of known weights, normalized by its scan peak."""
    k = geom.wavenumber

    def pattern(u: float) -> float:
        total = weights_vec[-1]
        for r, n, w in zip(geom.radii, geom.elements_per_ring, weights_vec[:-1]):
            total += w * n * bessel_j0(k * r * u)
        return total

    peak = max(abs(pattern(float(u))) for u in np.linspace(0, 1, 2001))

    def signed(u: float) -> float:
        return pattern(u) / peak

    return TargetPattern(
        kind="manufactured",
        params={"peak": peak},
        evaluator=lambda u: abs(signed(u)),
        signed_evaluator=signed,
    )


class TestSynthesize:
    def test_recovers_manufactured_weights(self):
        rng = np.random.default_rng(11)
        geom = uniform_half_wavelength_geometry(5)
        x_true = rng.standard_normal(6)
        target = manufactured_target(geom, x_true)
        peak = float(target.params["peak"])
        w, state = synthesize(geom, target, max_passes=1)
        got = weights_vector(w) * peak
        assert np.linalg.norm(got - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_residual_trace_non_increasing(self):
        geom = uniform_half_wavelength_geometry(9)
        _, state = synthesize(geom, flat_top(0.4, 0.12))
        trace = state.residual_trace
        assert len(trace) == state.passes_completed + 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-10

    def test_zero_passes_returns_batch_solution(self):
        geom = uniform_half_wavelength_geometry(4)
        target = flat_top(0.5, 0.1)
        samples = build_sample_set(geom, target)
        w0, state0 = synthesize(geom, target, max_passes=0, samples=samples)
        matrix = build_design_matrix(geom, samples.batch_abscissas)
        w_batch, _ = solve_batch(matrix, samples.batch_values)
        assert weights_vector(w0) == pytest.approx(weights_vector(w_batch), abs=0)
        assert state0.passes_completed == 0
        assert state0.converged is True

    def test_sweeps_settle_and_flag_convergence(self):
        geom = uniform_half_wavelength_geometry(9)
        _, state = synthesize(geom, flat_top(0.4, 0.12), max_passes=3, tolerance=1e-6)
        assert state.converged is True
        assert state.passes_completed <= 3

    def test_non_convergence_flagged_not_raised(self):
        geom = uniform_half_wavelength_geometry(9)
        _, state = synthesize(geom, flat_top(0.4, 0.12), max_passes=1, tolerance=1e-15)
        assert state.converged is False
        assert state.passes_completed == 1

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

    def test_absorbed_counter_accumulates_over_sweeps(self):
        geom = uniform_half_wavelength_geometry(9)
        target = flat_top(0.5, 0.1)
        samples = build_sample_set(geom, target)
        _, state = synthesize(geom, target, max_passes=3, tolerance=0.0, samples=samples)
        incremental = samples.total_count - samples.batch_count
        assert state.samples_absorbed == samples.batch_count + state.passes_completed * incremental

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
