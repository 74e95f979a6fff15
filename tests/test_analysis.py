"""Pattern cuts, surfaces, and metric measurement."""

import tracemalloc

import numpy as np
import pytest

from ringsynth.analysis import (
    DB_FLOOR,
    PatternCut,
    SurfaceGrid,
    cut_rows,
    evaluate_cut,
    evaluate_surface,
    measure_metrics,
    metrics_rows,
    pattern_on_grid,
    surface_rows,
)
from ringsynth.cli import BUNDLED_EXAMPLES, bundled_config_path, main
from ringsynth.config import load_config_file, resolve_config
from ringsynth.errors import DegeneratePatternError, DomainError
from ringsynth.geometry import RingGeometry, Weights, uniform_half_wavelength_geometry
from ringsynth.runner import run_synthesis
from ringsynth.solver import synthesize
from ringsynth.targets import equi_ripple, flat_top, from_table, with_nulls


def cut_from_target(target, points: int = 4001) -> PatternCut:
    """A cut whose dB trace is the target itself (no synthesis involved)."""
    u = np.linspace(-1.0, 1.0, points)
    amp = target.amplitude(u)
    floor = 10.0 ** (DB_FLOOR / 20.0)
    db = 20.0 * np.log10(np.maximum(amp / amp.max(), floor))
    return PatternCut(u_grid=u, amplitude_db=db)


class TestEvaluateCut:
    def test_center_only_is_flat(self):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        cut = evaluate_cut(geom, Weights(center=1, rings=(0,)))
        assert np.all(cut.amplitude_db == 0.0)

    def test_even_in_u(self):
        rng = np.random.default_rng(0)
        geom = uniform_half_wavelength_geometry(6)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(6)))
        cut = evaluate_cut(geom, w)
        assert np.max(np.abs(cut.amplitude_db - cut.amplitude_db[::-1])) <= 1e-12

    def test_scale_invariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(1)
        geom = uniform_half_wavelength_geometry(5)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(5)))
        scaled = Weights(center=2.0 * w.center, rings=tuple(2.0 * r for r in w.rings))
        a = evaluate_cut(geom, w)
        b = evaluate_cut(geom, scaled)
        assert np.array_equal(a.amplitude_db, b.amplitude_db)

    def test_scale_invariance_negative_scalar(self):
        rng = np.random.default_rng(2)
        geom = uniform_half_wavelength_geometry(5)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(5)))
        c = -0.7
        scaled = Weights(center=c * w.center, rings=tuple(c * r for r in w.rings))
        a = evaluate_cut(geom, w)
        b = evaluate_cut(geom, scaled)
        assert np.max(np.abs(a.amplitude_db - b.amplitude_db)) <= 1e-9

    def test_all_zero_weights_degenerate(self):
        geom = uniform_half_wavelength_geometry(3)
        with pytest.raises(DegeneratePatternError):
            evaluate_cut(geom, Weights(center=0, rings=(0, 0, 0)))

    def test_grid_floor_enforced(self):
        geom = uniform_half_wavelength_geometry(3)
        w = Weights(center=1, rings=(1, 1, 1))
        with pytest.raises(DomainError):
            evaluate_cut(geom, w, grid_points=400)

    def test_peak_is_zero_db(self):
        geom = uniform_half_wavelength_geometry(4)
        w = Weights(center=1, rings=(1, 0.5, 0.2, 0.1))
        cut = evaluate_cut(geom, w)
        assert cut.amplitude_db.max() == 0.0

    def test_db_floor_applied(self):
        # difference-style weights with exact zero at u = 0 would otherwise log(0)
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        cut = evaluate_cut(geom, Weights(center=-6.0, rings=(1.0,)))
        assert np.all(cut.amplitude_db >= DB_FLOOR)

    @pytest.mark.parametrize("points", [801, 2000, 2001])
    def test_half_grid_matches_full_grid(self, points):
        rng = np.random.default_rng(points)
        geom = uniform_half_wavelength_geometry(30)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(30)))
        cut = evaluate_cut(geom, w, grid_points=points)
        magnitude = np.abs(pattern_on_grid(geom, w, cut.u_grid))
        floor = 10.0 ** (DB_FLOOR / 20.0)
        reference = 20.0 * np.log10(np.maximum(magnitude / magnitude.max(), floor))
        assert np.array_equal(cut.amplitude_db, reference)
        assert np.array_equal(cut.amplitude_db, cut.amplitude_db[::-1])

    def test_peak_memory_at_500_rings(self):
        geom = uniform_half_wavelength_geometry(500)
        rng = np.random.default_rng(9)
        w = Weights(center=1.0, rings=tuple(rng.standard_normal(500)))
        tracemalloc.start()
        try:
            evaluate_cut(geom, w, grid_points=2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # full-grid evaluation with full-size J0 temporaries peaks near 89 MB
        assert peak < 30e6


class TestMeasureMetrics:
    def test_chebyshev_target_as_own_cut(self):
        target = equi_ripple(-30.0, 10)
        metrics = measure_metrics(cut_from_target(target), target)
        assert metrics.sll_db == pytest.approx(-30.0, abs=0.5)

    def test_flat_line_has_no_sidelobes(self):
        target = from_table([(-1.0, 1.0), (1.0, 1.0)])
        u = np.linspace(-1, 1, 2001)
        cut = PatternCut(u_grid=u, amplitude_db=np.zeros_like(u))
        metrics = measure_metrics(cut, target)
        assert metrics.sll_db is None

    def test_inserted_notch_depth(self):
        target = with_nulls(flat_top(0.9, 0.0), [0.5], -40.0, 0.05)
        metrics = measure_metrics(cut_from_target(target), target)
        assert len(metrics.null_depths_db) == 1
        center, depth = metrics.null_depths_db[0]
        assert center == 0.5
        assert depth == pytest.approx(-40.0, abs=1.0)

    def test_flat_top_ripple_measured_in_passband(self):
        geom = uniform_half_wavelength_geometry(9)
        target = flat_top(0.4, 0.12)
        w, _ = synthesize(geom, target)
        metrics = measure_metrics(evaluate_cut(geom, w), target)
        assert metrics.passband_ripple_db is not None
        assert 0.0 < metrics.passband_ripple_db < 3.0

    def test_pencil_beam_hpbw(self):
        target = equi_ripple(-30.0, 10)
        metrics = measure_metrics(cut_from_target(target), target)
        assert metrics.hpbw_u is not None
        assert 0.01 < metrics.hpbw_u < 0.3

    def test_sll_stable_under_grid_refinement(self):
        geom = uniform_half_wavelength_geometry(10)
        target = equi_ripple(-30.0, 10)
        w, _ = synthesize(geom, target)
        coarse = measure_metrics(evaluate_cut(geom, w, grid_points=2001), target)
        fine = measure_metrics(evaluate_cut(geom, w, grid_points=8001), target)
        assert abs(coarse.sll_db - fine.sll_db) <= 0.1

    def test_rms_error_reported(self):
        target = equi_ripple(-25.0, 8)
        metrics = measure_metrics(cut_from_target(target), target)
        assert metrics.rms_error_vs_target_db == pytest.approx(0.0, abs=1e-9)


class TestEvaluateSurface:
    def test_boresight_matches_cut(self):
        geom = uniform_half_wavelength_geometry(4)
        w = Weights(center=1, rings=(1, 1, 1, 1))  # peak at u = 0 on both grids
        surface = evaluate_surface(geom, w, theta_points=91, phi_points=8)
        cut = evaluate_cut(geom, w)
        mid = len(cut.u_grid) // 2
        assert surface.amplitude_db[0] == pytest.approx(
            cut.amplitude_db[mid], abs=1e-9
        )

    def test_horizon_matches_cut_edge(self):
        geom = uniform_half_wavelength_geometry(4)
        w = Weights(center=1, rings=(1, 1, 1, 1))
        surface = evaluate_surface(geom, w, theta_points=91, phi_points=8)
        cut = evaluate_cut(geom, w)
        assert surface.amplitude_db[-1] == pytest.approx(
            cut.amplitude_db[-1], abs=1e-9
        )

    def test_surface_grid_coerces_sequences(self):
        surface = SurfaceGrid(theta=[0.0, 0.5], phi=[0.0, 1.0, 2.0],
                              amplitude_db=[0, -3])
        assert surface.theta.dtype == float and surface.phi.dtype == float
        assert surface.amplitude_db.dtype == float
        assert surface.amplitude_db.shape == (2,)

    @pytest.mark.parametrize(
        "theta, phi, db",
        [
            ([0.0, 0.5], [0.0, 1.0], [0]),
            ([[0.0, 0.5]], [0.0, 1.0], [0, 0]),
            ([0.0], [], [0]),
            # a phi-tiled grid: the surface holds one value per theta
            ([0.0, 0.5], [0.0, 1.0], [[0, 0], [-1, -1]]),
        ],
    )
    def test_surface_grid_rejects_bad_shapes(self, theta, phi, db):
        with pytest.raises(DomainError):
            SurfaceGrid(theta=theta, phi=phi, amplitude_db=db)

    def test_rejects_tiny_grid(self):
        geom = uniform_half_wavelength_geometry(2)
        w = Weights(center=1, rings=(1, 1))
        with pytest.raises(DomainError):
            evaluate_surface(geom, w, theta_points=1, phi_points=8)

    def test_surface_column_is_pattern_at_sin_theta(self, pattern_oracle):
        # the surface must be the peak-normalized |F(sin theta)|,
        # cross-checked against the mpmath oracle
        geom = uniform_half_wavelength_geometry(4)
        w = Weights(center=1, rings=(1, 1, 1, 1))  # peak at theta = 0
        surface = evaluate_surface(geom, w, theta_points=121, phi_points=5)
        mag = np.abs(pattern_oracle(geom, w, np.sin(surface.theta)))
        expected = 20.0 * np.log10(np.maximum(mag / mag[0], 1e-10))
        assert surface.amplitude_db == pytest.approx(expected, abs=1e-9)


def per_cell_cut_text(cut: PatternCut, target=None) -> str:
    """Reference cut table: one f-string per cell."""
    if target is None:
        rows = ["u,db"] + [f"{u:.6f},{db:.6f}" for u, db in zip(cut.u_grid, cut.amplitude_db)]
    else:
        floor = 10.0 ** (DB_FLOOR / 20.0)
        target_db = 20.0 * np.log10(np.maximum(target.amplitude(cut.u_grid), floor))
        rows = ["u,db,target_db"] + [
            f"{u:.6f},{db:.6f},{t:.6f}"
            for u, db, t in zip(cut.u_grid, cut.amplitude_db, target_db)
        ]
    return "\n".join(rows) + "\n"


def per_cell_surface_text(surface: SurfaceGrid) -> str:
    """Reference surface table: one f-string per cell."""
    rows = ["theta,phi,db"]
    for i, theta in enumerate(surface.theta):
        for phi in surface.phi:
            rows.append(f"{theta:.6f},{phi:.6f},{surface.amplitude_db[i]:.6f}")
    return "\n".join(rows) + "\n"


# -0.0, the dB floor, values near 6-decimal rounding ties and magnitudes >= 100
EDGE_VALUES = np.array(
    [-0.0, 0.0, DB_FLOOR, -5e-7, -2.5e-6, -1.5e-6, -0.0000125, -100.0, -123.4567895,
     -199.9999995, -1e-12, -3.0000005]
)


class TestSerialization:
    def test_cut_rows_format(self):
        geom = uniform_half_wavelength_geometry(3)
        w = Weights(center=1, rings=(1, 1, 1))
        cut = evaluate_cut(geom, w)
        rows = cut_rows(cut, flat_top(0.4, 0.1)).splitlines()
        assert rows[0] == "u,db,target_db"
        assert len(rows) == len(cut.u_grid) + 1
        first = rows[1].split(",")
        assert float(first[0]) == -1.0
        assert len(first) == 3

    def test_surface_rows_format(self):
        geom = uniform_half_wavelength_geometry(2)
        w = Weights(center=1, rings=(1, 1))
        surface = evaluate_surface(geom, w, theta_points=3, phi_points=4)
        rows = surface_rows(surface).splitlines()
        assert rows[0] == "theta,phi,db"
        assert len(rows) == 3 * 4 + 1

    def test_table_text_matches_per_cell_reference(self):
        n = 811
        db = np.resize(EDGE_VALUES, n)
        u = np.linspace(-1.0, 1.0, n)
        u[: EDGE_VALUES.size] = -EDGE_VALUES
        u[EDGE_VALUES.size : 2 * EDGE_VALUES.size] = EDGE_VALUES
        cut = PatternCut(u_grid=u, amplitude_db=db)
        # a table target reaching exact zero (the dB floor) and exact one (0 dB)
        table = from_table([(-1.0, 0.0), (-0.5, 1.0), (0.5, 1.0), (1.0, 0.0)])
        for target in (None, table, flat_top(0.4, 0.1)):
            assert cut_rows(cut, target) == per_cell_cut_text(cut, target)

        theta = np.concatenate([EDGE_VALUES, [0.5, 123.4567895]])
        phi = -EDGE_VALUES
        db_theta = np.resize(EDGE_VALUES[::-1], theta.size)
        surface = SurfaceGrid(theta=theta, phi=phi, amplitude_db=db_theta)
        assert surface_rows(surface) == per_cell_surface_text(surface)

    @pytest.mark.parametrize("name", BUNDLED_EXAMPLES)
    def test_bundled_files_match_per_cell_reference(self, tmp_path, name):
        assert main(["run", name, "--out", str(tmp_path), "--surface", "--quiet"]) == 0
        raw = load_config_file(bundled_config_path(name))
        raw["output"] = {**raw.get("output", {}), "surface": True}
        cfg, warnings = resolve_config(raw)
        report = run_synthesis(cfg, warnings)
        cut_text = (tmp_path / "cut.csv").read_text(encoding="utf-8")
        surface_text = (tmp_path / "surface.csv").read_text(encoding="utf-8")
        assert cut_text == per_cell_cut_text(report.cut, report.target)
        assert surface_text == per_cell_surface_text(report.surface)

    def test_metrics_rows_include_nulls(self):
        target = with_nulls(flat_top(0.9, 0.0), [0.5], -40.0, 0.05)
        metrics = measure_metrics(cut_from_target(target), target)
        rows = metrics_rows(metrics)
        assert any(row.startswith("sll_db = ") for row in rows)
        assert any(row.startswith("null_depth_db[0.5") for row in rows)
