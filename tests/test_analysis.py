"""Pattern cuts, surfaces, and metric measurement."""

import io
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsynth.analysis import (
    DB_FLOOR,
    PatternCut,
    SurfaceGrid,
    _BLOCK_BYTES,
    _CHUNK_ROWS,
    _fixed6_table,
    _symmetric_grid,
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
from ringsynth.runner import run_synthesis, write_outputs
from ringsynth.sampling import build_sample_set
from ringsynth.solver import _ring_block, _vector_from_weights, synthesize
from ringsynth.targets import equi_ripple, flat_top, from_table, with_nulls

# the target of cuts whose tests do not look at it
FLAT_TOP = flat_top(0.4, 0.1)


def cut_from_target(target, points: int = 4001) -> PatternCut:
    """A cut whose dB trace is the target itself (no synthesis involved)."""
    u = np.linspace(-1.0, 1.0, points)
    amp = target.amplitude(u)
    floor = 10.0 ** (DB_FLOOR / 20.0)
    db = 20.0 * np.log10(np.maximum(amp / amp.max(), floor))
    return PatternCut(u_grid=u, amplitude_db=db, target_amplitude=amp)


class TestEvaluateCut:
    def test_center_only_is_flat(self):
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        cut = evaluate_cut(geom, Weights(center=1, rings=(0,)), FLAT_TOP)
        assert np.all(cut.amplitude_db == 0.0)

    def test_even_in_u(self):
        rng = np.random.default_rng(0)
        geom = uniform_half_wavelength_geometry(6)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(6)))
        cut = evaluate_cut(geom, w, FLAT_TOP)
        assert np.max(np.abs(cut.amplitude_db - cut.amplitude_db[::-1])) <= 1e-12

    def test_scale_invariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(1)
        geom = uniform_half_wavelength_geometry(5)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(5)))
        scaled = Weights(center=2.0 * w.center, rings=tuple(2.0 * r for r in w.rings))
        a = evaluate_cut(geom, w, FLAT_TOP)
        b = evaluate_cut(geom, scaled, FLAT_TOP)
        assert np.array_equal(a.amplitude_db, b.amplitude_db)

    def test_scale_invariance_negative_scalar(self):
        rng = np.random.default_rng(2)
        geom = uniform_half_wavelength_geometry(5)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(5)))
        c = -0.7
        scaled = Weights(center=c * w.center, rings=tuple(c * r for r in w.rings))
        a = evaluate_cut(geom, w, FLAT_TOP)
        b = evaluate_cut(geom, scaled, FLAT_TOP)
        assert np.max(np.abs(a.amplitude_db - b.amplitude_db)) <= 1e-9

    def test_all_zero_weights_degenerate(self):
        geom = uniform_half_wavelength_geometry(3)
        with pytest.raises(DegeneratePatternError):
            evaluate_cut(geom, Weights(center=0, rings=(0, 0, 0)), FLAT_TOP)

    def test_grid_floor_enforced(self):
        geom = uniform_half_wavelength_geometry(3)
        w = Weights(center=1, rings=(1, 1, 1))
        with pytest.raises(DomainError):
            evaluate_cut(geom, w, FLAT_TOP, grid_points=400)

    def test_peak_is_zero_db(self):
        geom = uniform_half_wavelength_geometry(4)
        w = Weights(center=1, rings=(1, 0.5, 0.2, 0.1))
        cut = evaluate_cut(geom, w, FLAT_TOP)
        assert cut.amplitude_db.max() == 0.0

    def test_db_floor_applied(self):
        # difference-style weights with exact zero at u = 0 would otherwise log(0)
        geom = RingGeometry(1.0, (0.5,), (6,), has_center_element=True)
        cut = evaluate_cut(geom, Weights(center=-6.0, rings=(1.0,)), FLAT_TOP)
        assert np.all(cut.amplitude_db >= DB_FLOOR)

    @pytest.mark.parametrize("rings, points, half", [
        (500, 2001, True), (500, 20001, True), (20, 20001, False),
        (500, 1040, False), (500, 1041, False),
    ])
    def test_chunks_match_one_block(self, rings, points, half):
        # at 500 rings a chunk is 520 rows: the cut's half grids (1001 and
        # 10001 rows), exactly two chunks and two chunks and a row; at 20
        # rings a 12480-row chunk and the rest of a whole 20001-point grid
        rng = np.random.default_rng(rings + points)
        geom = uniform_half_wavelength_geometry(rings)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(rings)))
        u = _symmetric_grid(points)
        if half:
            u = u[points // 2 :]
        want = np.einsum("ij,j->i", _ring_block(geom, u), _vector_from_weights(w, rings + 1))
        assert np.array_equal(pattern_on_grid(geom, w, u), want)

    @pytest.mark.parametrize("points", [801, 2000, 2001])
    def test_half_grid_matches_full_grid(self, points):
        rng = np.random.default_rng(points)
        geom = uniform_half_wavelength_geometry(30)
        w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(30)))
        cut = evaluate_cut(geom, w, FLAT_TOP, grid_points=points)
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
            evaluate_cut(geom, w, FLAT_TOP, grid_points=2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # full-grid evaluation with full-size J0 temporaries peaks near 89 MB
        assert peak < 30e6

    def test_ring_block_is_the_only_basis_sized_array(self):
        # the half-grid block goes in chunks of whole J0 panels, each used
        # and dropped, so even one 1001 x 501 block (4.0 MB) never exists;
        # the whole block with J0's working arrays peaked at 4.9 MB
        geom = uniform_half_wavelength_geometry(500)
        w = Weights(center=1.0, rings=(1.0,) * 500)
        tracemalloc.start()
        try:
            evaluate_cut(geom, w, FLAT_TOP, grid_points=2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1001 * 501 * 8


class TestPatternCut:
    @pytest.mark.parametrize("shape", [(800,), (802,), (801, 1), ()])
    def test_rejects_target_of_another_shape(self, shape):
        u = np.linspace(-1.0, 1.0, 801)
        with pytest.raises(DomainError):
            PatternCut(u_grid=u, amplitude_db=np.zeros_like(u), target_amplitude=np.ones(shape))

    @pytest.mark.parametrize("field", ["u_grid", "amplitude_db", "target_amplitude"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, field, bad):
        u = np.linspace(-1.0, 1.0, 801)
        values = {"u_grid": u, "amplitude_db": -np.abs(u), "target_amplitude": np.ones_like(u)}
        values[field][7] = bad
        with pytest.raises(DomainError, match="finite"):
            PatternCut(**values)

    def test_carries_the_target_over_the_whole_grid(self):
        # a notched target is not even in u, so no half of the grid can stand for it
        target = with_nulls(equi_ripple(-30.0, 5), [0.6], -40.0, 0.05)
        geom = uniform_half_wavelength_geometry(5)
        cut = evaluate_cut(geom, Weights(center=1, rings=(1,) * 5), target)
        assert np.array_equal(cut.target_amplitude, target.amplitude(cut.u_grid))
        assert not np.array_equal(cut.target_amplitude, cut.target_amplitude[::-1])

    @pytest.mark.parametrize("name", BUNDLED_EXAMPLES)
    def test_target_evaluated_once_per_grid(self, tmp_path, name):
        path = bundled_config_path(name)
        cfg, warnings = resolve_config(load_config_file(path), base_dir=path.parent)
        sizes = []
        evaluate = cfg.target.evaluator

        def counting(u):
            sizes.append(u.size)
            return evaluate(u)

        cfg = replace(cfg, target=replace(cfg.target, evaluator=counting))
        report = run_synthesis(cfg, warnings)
        write_outputs(report, tmp_path)
        assert sizes == [report.samples.total_count, cfg.grid_points]


class TestMeasureMetrics:
    def test_chebyshev_target_as_own_cut(self):
        target = equi_ripple(-30.0, 10)
        metrics = measure_metrics(cut_from_target(target), target)
        assert metrics.sll_db == pytest.approx(-30.0, abs=0.5)

    def test_flat_line_has_no_sidelobes(self):
        target = from_table([(-1.0, 1.0), (1.0, 1.0)])
        u = np.linspace(-1, 1, 2001)
        cut = PatternCut(u_grid=u, amplitude_db=np.zeros_like(u),
                         target_amplitude=target.amplitude(u))
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
        w, _ = synthesize(geom, build_sample_set(geom, target))
        metrics = measure_metrics(evaluate_cut(geom, w, target), target)
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
        w, _ = synthesize(geom, build_sample_set(geom, target))
        coarse = measure_metrics(evaluate_cut(geom, w, target, grid_points=2001), target)
        fine = measure_metrics(evaluate_cut(geom, w, target, grid_points=8001), target)
        assert abs(coarse.sll_db - fine.sll_db) <= 0.1

    def test_rms_error_reported(self):
        target = equi_ripple(-25.0, 8)
        metrics = measure_metrics(cut_from_target(target), target)
        assert metrics.rms_error_vs_target_db == pytest.approx(0.0, abs=1e-9)


GRID = np.linspace(-1.0, 1.0, 801)
PENCIL = equi_ripple(-30.0, 10)


def reference_main_region(db, amplitude, flat) -> list[bool]:
    """The docstring's main lobe: target above one half, or the -3 dB region round the peak(s)."""
    if flat:
        return [a > 0.5 for a in amplitude]
    main = [d >= -0.01 for d in db]
    for i in range(1, len(db)):
        main[i] = main[i] or (main[i - 1] and db[i] > -3.0)
    for i in range(len(db) - 2, -1, -1):
        main[i] = main[i] or (main[i + 1] and db[i] > -3.0)
    return main


def reference_sll_and_hpbw(u, db, main, lobes):
    """Sidelobe level and beamwidth by one pass over the grid indices, per the docstring."""
    n = len(db)
    peaks = []
    for i in range(n):
        neighbours = [k for k in (i - 1, i + 1) if 0 <= k < n]
        flank = any(main[k] for k in neighbours) and 0 < i < n - 1
        if not main[i] and not flank and all(db[i] >= db[k] for k in neighbours if not main[k]):
            peaks.append(db[i])
    regions = [i for i in range(n) if lobes[i] and (i == 0 or not lobes[i - 1])]
    if len(regions) != 1:
        return max(peaks, default=None), None
    edges = [regions[0], max(i for i in range(n) if lobes[i])]
    crossings = []
    for edge, step in zip(edges, (-1, 1)):
        outer = edge + step
        if not 0 <= outer < n:
            return max(peaks, default=None), None
        frac = (-3.0 - db[edge]) / (db[outer] - db[edge])
        crossings.append(float(u[edge] + frac * (u[outer] - u[edge])))
    return max(peaks, default=None), crossings[1] - crossings[0]


@st.composite
def synthetic_cuts(draw):
    """801-point cuts: integer random walks with plateaus, flat-top regions and grid-end spikes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = GRID.size
    plateau = draw(st.integers(1, 25))
    steps = np.repeat(rng.integers(-3, 4, n // plateau + 1), plateau)[:n]
    scale = draw(st.sampled_from([0.25, 1.0, 4.0]))
    db = np.cumsum(steps) * scale
    target, amplitude = PENCIL, PENCIL.amplitude(GRID)
    if draw(st.booleans()):
        # one or two regions near the top of the cut, often touching or near
        # a grid end; the lifted span may run a few points past the region,
        # so that its outer neighbours can stand above its edges
        target, amplitude = FLAT_TOP, np.full(n, 0.1)
        top = db.max()
        for _ in range(draw(st.integers(1, 2))):
            lo = draw(st.sampled_from([0, 1, 2, int(rng.integers(0, n))]))
            hi = draw(st.sampled_from([n - 1, n - 2, n - 3, int(rng.integers(lo, n))]))
            amplitude[lo : hi + 1] = 1.0
            pad = draw(st.integers(0, 3))
            lifted = slice(max(lo - pad, 0), hi + pad + 1)
            db[lifted] = top - scale * rng.integers(0, 3, db[lifted].size)
    for i in draw(st.lists(st.sampled_from([0, 1, n - 2, n - 1]), max_size=3)):
        db[i] = db.max() + draw(st.floats(-10.0, 5.0))
    return PatternCut(GRID, np.maximum(db - db.max(), DB_FLOOR), amplitude), target


class TestMetricDefinitions:
    @settings(max_examples=300)
    @given(synthetic_cuts())
    def test_sll_and_hpbw_match_per_index_reference(self, case):
        cut, target = case
        db, amplitude = cut.amplitude_db.tolist(), cut.target_amplitude.tolist()
        main = reference_main_region(db, amplitude, target is FLAT_TOP)
        lobes = reference_main_region(db, amplitude, False)
        sll, hpbw = reference_sll_and_hpbw(cut.u_grid, cut.amplitude_db, main, lobes)
        metrics = measure_metrics(cut, target)
        assert metrics.sll_db == sll
        assert metrics.hpbw_u == hpbw

    def test_isolated_point_at_grid_end_is_a_sidelobe(self):
        # the flat-top region covers every point but u = -1
        amplitude = np.ones(801)
        amplitude[0] = 0.1
        db = np.zeros(801)
        db[0] = -20.0
        metrics = measure_metrics(PatternCut(GRID, db, amplitude), FLAT_TOP)
        assert metrics.sll_db == -20.0

    def test_flank_next_to_the_main_region_is_not_a_sidelobe(self):
        # the flat-top region |u| <= 0.5 ends at -6 dB, below its outer
        # neighbours at -5.1 dB, from which the pattern falls away
        inside = np.abs(GRID) <= 0.5
        db = np.where(inside, 0.0, -5.0 - 40.0 * (np.abs(GRID) - 0.5))
        db[np.flatnonzero(inside)[[0, -1]]] = -6.0
        db[np.isclose(np.abs(GRID), 0.8)] = -10.0
        assert db[~inside].max() > -5.2
        amplitude = np.where(inside, 1.0, 0.1)
        metrics = measure_metrics(PatternCut(GRID, db, amplitude), FLAT_TOP)
        assert metrics.sll_db == -10.0

    def test_edge_below_half_power_gives_the_patterns_own_crossings(self):
        # the flat-top region |u| <= 0.5 ends at -6 dB and the next point is
        # at -20 dB; the beamwidth is read inside the region, between the
        # pattern's own -3 dB points at |u| = 0.45, not extrapolated from
        # the region's edge and its outer neighbour (0.998929)
        amplitude = np.where(np.abs(GRID) <= 0.5, 1.0, 0.1)
        db = np.minimum(0.0, -60.0 * (np.abs(GRID) - 0.4))
        db[np.abs(GRID) > 0.5] = -20.0
        metrics = measure_metrics(PatternCut(GRID, db, amplitude), FLAT_TOP)
        assert db[np.abs(GRID) <= 0.5].min() == pytest.approx(-6.0)
        assert metrics.hpbw_u == pytest.approx(0.9)
        assert metrics.sll_db == -20.0

    @pytest.mark.parametrize("name", BUNDLED_EXAMPLES)
    def test_bundled_hpbw_is_the_width_between_the_cuts_own_crossings(self, name):
        path = bundled_config_path(name)
        cfg, warnings = resolve_config(load_config_file(path), base_dir=path.parent)
        report = run_synthesis(cfg, warnings)
        u, db = report.cut.u_grid, report.cut.amplitude_db
        if name == "example-b-difference":
            assert report.metrics.hpbw_u is None  # two lobes, one each side of the null
            return
        crossings = []
        for step in (-1, 1):
            inner = int(np.argmax(db))
            while db[inner + step] > -3.0:
                inner += step
            outer = inner + step
            frac = (-3.0 - db[inner]) / (db[outer] - db[inner])
            crossings.append(u[inner] + frac * (u[outer] - u[inner]))
        assert report.metrics.hpbw_u == crossings[1] - crossings[0]


class TestEvaluateSurface:
    def test_boresight_matches_cut(self):
        geom = uniform_half_wavelength_geometry(4)
        w = Weights(center=1, rings=(1, 1, 1, 1))  # peak at u = 0 on both grids
        surface = evaluate_surface(geom, w, theta_points=91, phi_points=8)
        cut = evaluate_cut(geom, w, FLAT_TOP)
        mid = len(cut.u_grid) // 2
        assert surface.amplitude_db[0] == pytest.approx(
            cut.amplitude_db[mid], abs=1e-9
        )

    def test_horizon_matches_cut_edge(self):
        geom = uniform_half_wavelength_geometry(4)
        w = Weights(center=1, rings=(1, 1, 1, 1))
        surface = evaluate_surface(geom, w, theta_points=91, phi_points=8)
        cut = evaluate_cut(geom, w, FLAT_TOP)
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

    @pytest.mark.parametrize("field", ["theta", "phi", "amplitude_db"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_surface_grid_rejects_non_finite_values(self, field, bad):
        values = {"theta": [0.0, 0.5], "phi": [0.0, 1.0, 2.0], "amplitude_db": [0.0, -3.0]}
        values[field][1] = bad
        with pytest.raises(DomainError, match="finite"):
            SurfaceGrid(**values)

    @pytest.mark.parametrize(
        "theta, phi",
        [
            ([-0.0, 0.5], [0.0, 1.0]),
            ([0.0, np.nextafter(math.pi / 2.0, 4.0)], [0.0, 1.0]),
            ([0.0, 0.5], [-0.0, 1.0]),
            ([0.0, 0.5], [0.0, 2.0 * math.pi]),
        ],
    )
    def test_surface_grid_rejects_angles_off_the_hemisphere(self, theta, phi):
        with pytest.raises(DomainError, match=r"\[0, pi/2\] and phi in \[0, 2\*pi\)"):
            SurfaceGrid(theta=theta, phi=phi, amplitude_db=[0.0, -3.0])

    @pytest.mark.parametrize("theta_points, phi_points", [(2, 2), (721, 181), (3, 40000)])
    def test_every_evaluated_grid_is_on_the_hemisphere(self, theta_points, phi_points):
        # the default grid, the dense-output job's and the wide-rows config's
        w = Weights(center=1, rings=(1, 1))
        surface = evaluate_surface(uniform_half_wavelength_geometry(2), w, theta_points, phi_points)
        assert surface.theta[-1] == math.pi / 2.0 and surface.phi[-1] < 2.0 * math.pi

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


def table_text(write, table) -> str:
    """The text a table writer sends to an open binary file, decoded."""
    out = io.BytesIO()
    write(table, out)
    return out.getvalue().decode("ascii")


def per_cell_cut_text(cut: PatternCut, target) -> str:
    """Reference cut table: one f-string per cell, the target evaluated afresh."""
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


def first_difference(got, want):
    """(line number, got line, want line) at the first line two tables differ in, or None.

    Asserting that this is None keeps a failure's report to one line: pytest
    explains a failed == of two multi-MB strings, or (under ``CI``) of two
    line lists, with a diff that ran for over five minutes.
    """
    pairs = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next(((n, g, w) for n, (g, w) in enumerate(pairs, 1) if g != w), None)


class CountingRaw(io.RawIOBase):
    """A raw stream that keeps the size of every write it receives and drops the bytes."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(len(data))
        return len(data)


class RecordingRaw(CountingRaw):
    """A counting raw stream that also keeps the bytes."""

    def __init__(self):
        super().__init__()
        self.data = bytearray()

    def write(self, data):
        self.data += data
        return super().write(data)


@pytest.fixture(scope="module")
def dense_report():
    """(config, report) shaped like the dense-output benchmark job.

    20 rings, a 20001-point cut and a 721 x 181 surface: about 4.4 MB of files.
    """
    raw = {
        "geometry": {"wavelength": 1.0, "rings": 20},
        "target": {"kind": "equi_ripple", "sll_db": -30.0, "nulls": [
            {"center": 0.4, "depth_db": -40, "width": 0.06},
            {"center": 0.75, "depth_db": -40, "width": 0.06},
        ]},
        "output": {"grid_points": 20001, "surface": True, "theta_points": 721,
                   "phi_points": 181},
    }
    cfg, warnings = resolve_config(raw)
    return cfg, run_synthesis(cfg, warnings)


# -0.0, the dB floor, values near 6-decimal rounding ties and magnitudes >= 100
EDGE_VALUES = np.array(
    [-0.0, 0.0, DB_FLOOR, -5e-7, -2.5e-6, -1.5e-6, -0.0000125, -100.0, -123.4567895,
     -199.9999995, -1e-12, -3.0000005]
)

# surface angles on the hemisphere: both ends of each axis and values at or
# near 6-decimal rounding ties
THETA_EDGES = np.array(
    [0.0, 5e-7, 2.5e-6, 1.5e-6, 0.0000125, 1e-12, 0.0078125, 0.5, 1.0000005, 1.5707955,
     math.pi / 2.0]
)
PHI_EDGES = np.concatenate([THETA_EDGES, [3.0000005, 6.2831845, np.nextafter(2.0 * math.pi, 0.0)]])


class TestSerialization:
    def test_cut_rows_format(self):
        geom = uniform_half_wavelength_geometry(3)
        w = Weights(center=1, rings=(1, 1, 1))
        cut = evaluate_cut(geom, w, FLAT_TOP)
        rows = table_text(cut_rows, cut).splitlines()
        assert rows[0] == "u,db,target_db"
        assert len(rows) == len(cut.u_grid) + 1
        first = rows[1].split(",")
        assert float(first[0]) == -1.0
        assert len(first) == 3

    def test_surface_rows_format(self):
        geom = uniform_half_wavelength_geometry(2)
        w = Weights(center=1, rings=(1, 1))
        surface = evaluate_surface(geom, w, theta_points=3, phi_points=4)
        rows = table_text(surface_rows, surface).splitlines()
        assert rows[0] == "theta,phi,db"
        assert len(rows) == 3 * 4 + 1

    def test_table_text_matches_per_cell_reference(self):
        n = 811
        db = np.resize(EDGE_VALUES, n)
        u = np.linspace(-1.0, 1.0, n)
        u[: EDGE_VALUES.size] = -EDGE_VALUES
        u[EDGE_VALUES.size : 2 * EDGE_VALUES.size] = EDGE_VALUES
        # a table target reaching exact zero (the dB floor) and exact one (0 dB)
        table = from_table([(-1.0, 0.0), (-0.5, 1.0), (0.5, 1.0), (1.0, 0.0)])
        for target in (table, FLAT_TOP):
            cut = PatternCut(u_grid=u, amplitude_db=db, target_amplitude=target.amplitude(u))
            assert table_text(cut_rows, cut) == per_cell_cut_text(cut, target)

        theta = np.resize(THETA_EDGES, EDGE_VALUES.size)  # one row per dB edge value
        db_theta = EDGE_VALUES[::-1]
        surface = SurfaceGrid(theta=theta, phi=PHI_EDGES, amplitude_db=db_theta)
        assert table_text(surface_rows, surface) == per_cell_surface_text(surface)

    @pytest.mark.parametrize("name", BUNDLED_EXAMPLES)
    def test_bundled_files_match_per_cell_reference(self, tmp_path, name):
        assert main(["run", name, "--out", str(tmp_path), "--surface", "--quiet"]) == 0
        raw = load_config_file(bundled_config_path(name))
        raw["output"] = {**raw.get("output", {}), "surface": True}
        cfg, warnings = resolve_config(raw)
        report = run_synthesis(cfg, warnings)
        cut_text = (tmp_path / "cut.csv").read_text(encoding="utf-8")
        surface_text = (tmp_path / "surface.csv").read_text(encoding="utf-8")
        assert first_difference(cut_text, per_cell_cut_text(report.cut, cfg.target)) is None
        assert first_difference(surface_text, per_cell_surface_text(report.surface)) is None

    def test_multi_chunk_files_match_per_cell_reference(self, tmp_path):
        # the bundled default grid (2001 points) fits in one chunk; 20001 takes five
        assert main(["run", "example-d-nulls", "--out", str(tmp_path), "--grid", "20001",
                     "--surface", "--quiet"]) == 0
        raw = load_config_file(bundled_config_path("example-d-nulls"))
        raw["output"] = {**raw.get("output", {}), "grid_points": 20001, "surface": True}
        cfg, warnings = resolve_config(raw)
        report = run_synthesis(cfg, warnings)
        assert report.cut.u_grid.size > 4 * _CHUNK_ROWS
        cut_text = (tmp_path / "cut.csv").read_text(encoding="utf-8")
        surface_text = (tmp_path / "surface.csv").read_text(encoding="utf-8")
        assert first_difference(cut_text, per_cell_cut_text(report.cut, cfg.target)) is None
        assert first_difference(surface_text, per_cell_surface_text(report.surface)) is None

    def test_write_outputs_memory_stays_bounded(self, tmp_path, dense_report):
        # building each table as one string and encoding it peaked near 7.6 MB
        report = dense_report[1]
        tracemalloc.start()
        try:
            written = write_outputs(report, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(path.stat().st_size for path in written) > 4_000_000
        assert peak < 1.5e6

    def test_surface_leaves_in_few_large_writes(self, dense_report):
        raw = CountingRaw()
        with io.BufferedWriter(raw) as out:
            surface_rows(dense_report[1].surface, out)
        size = sum(raw.writes)
        assert size > 3_000_000
        assert len(raw.writes) <= math.ceil(size / _BLOCK_BYTES) + 2
        assert max(raw.writes) <= 2 * _BLOCK_BYTES

    @pytest.mark.parametrize("theta_points, phi_points", [(2, 2**18), (2**17, 2)])
    def test_wide_and_tall_surfaces_stay_within_bounded_memory(self, theta_points, phi_points):
        # holding every phi label as a Python object and joining whole theta
        # rows peaked at 39.7 MB and 8.3 MB for these two 2 MB grids
        surface = SurfaceGrid(
            theta=np.linspace(0.0, math.pi / 2.0, theta_points),
            phi=np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False),
            amplitude_db=np.linspace(0.0, -60.0, theta_points),
        )
        grid_bytes = surface.theta.nbytes + surface.phi.nbytes + surface.amplitude_db.nbytes
        raw = CountingRaw()
        tracemalloc.start()
        try:
            with io.BufferedWriter(raw) as out:
                surface_rows(surface, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(raw.writes) > theta_points * phi_points * 25
        assert max(raw.writes) <= 2 * _BLOCK_BYTES
        assert peak < 3 * grid_bytes

    def test_table_bytes_match_per_cell_reference(self, dense_report):
        cfg, report = dense_report
        for write, table, expected in (
            (cut_rows, report.cut, per_cell_cut_text(report.cut, cfg.target)),
            (surface_rows, report.surface, per_cell_surface_text(report.surface)),
        ):
            out = io.BytesIO()
            write(table, out)
            assert first_difference(out.getvalue(), expected.encode()) is None

    def test_metrics_rows_include_nulls(self):
        target = with_nulls(flat_top(0.9, 0.0), [0.5], -40.0, 0.05)
        metrics = measure_metrics(cut_from_target(target), target)
        rows = metrics_rows(metrics)
        assert any(row.startswith("sll_db = ") for row in rows)
        assert any(row.startswith("null_depth_db[0.5") for row in rows)

    def test_fast_path_takes_real_cuts(self):
        geom = uniform_half_wavelength_geometry(20)
        target = FLAT_TOP
        cut = evaluate_cut(geom, Weights(center=1, rings=(1,) * 20), target, grid_points=4001)
        target_db = 20.0 * np.log10(np.maximum(target.amplitude(cut.u_grid), 1e-10))
        text = _fixed6_table(np.column_stack([cut.u_grid, cut.amplitude_db, target_db]))
        assert text is not None
        assert b"u,db,target_db\n" + text == per_cell_cut_text(cut, target).encode()


def percent_text(values) -> str:
    """Reference rows: one ``%.6f`` per cell, comma-joined."""
    return "".join(",".join("%.6f" % x for x in row) + "\n" for row in values.tolist())


# a table target whose dB column holds the floor, 0 dB and values between
TABLE = from_table([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.25)])


def cut_holding(values, db=None) -> PatternCut:
    """A minimum-size cut whose u column repeats ``values`` (dB peak at 0), target TABLE."""
    u = np.resize(np.asarray(values, dtype=float), 801)
    if db is None:
        db = -np.abs(u)
        db[0] = 0.0
    return PatternCut(u_grid=u, amplitude_db=np.resize(np.asarray(db, dtype=float), 801),
                      target_amplitude=TABLE.amplitude(u))


FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


# values whose %.6f text ranges from 8 to 12 bytes: -0.0, six-decimal ties
# and near-ties, and integer parts of one to four digits of either sign
MIXED_WIDTHS = st.one_of(
    FINITE,
    st.sampled_from([-0.0, 0.0, 0.0078125, -0.0078125, -2.5e-6, 1.5e-6, 9.9999995, 10.0,
                     -99.9999995, 100.0, -123.4567895, DB_FLOOR, 999.9999995]),
)


# hemisphere angles, with the six-decimal ties and near-ties of THETA_EDGES and PHI_EDGES
THETAS = st.one_of(st.floats(min_value=0.0, max_value=math.pi / 2.0),
                   st.sampled_from(THETA_EDGES.tolist()))
PHIS = st.one_of(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
                 st.sampled_from(PHI_EDGES.tolist()))


class TestFixedPointKernel:
    @given(st.lists(FINITE, min_size=1, max_size=40))
    def test_cut_rows_match_per_cell_reference(self, values):
        cut = cut_holding(values)
        assert table_text(cut_rows, cut) == per_cell_cut_text(cut, TABLE)

    @given(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=1, max_size=40))
    def test_mixed_sign_columns_match_or_fall_back(self, rows):
        values = np.array(rows)
        text = _fixed6_table(values)
        assert text is None or text == percent_text(values).encode()

    def test_dyadic_ties_fall_back_and_match(self):
        ties = (np.arange(-128, 129) / 128.0)[:, None]
        assert _fixed6_table(ties) is None
        assert _fixed6_table(ties[::2]) == percent_text(ties[::2]).encode()
        cut = cut_holding(ties.ravel())
        assert table_text(cut_rows, cut) == per_cell_cut_text(cut, TABLE)
        assert "0.007812," in table_text(cut_rows, cut)  # 0.0078125 rounds half to even

    @pytest.mark.parametrize("value", [-0.0, -1e-9])
    def test_negative_zero_keeps_its_sign(self, value):
        assert _fixed6_table(np.array([[value]])) == b"-0.000000\n"

    def test_values_at_the_range_edge(self):
        # 999.9999995 sits a hair below the tie in binary; its product rounds
        # onto the tie, so the kernel declines it
        for value in (999.9999995, -999.9999995):
            assert _fixed6_table(np.array([[value]])) is None
            cut = cut_holding([value, 0.0])
            assert table_text(cut_rows, cut) == per_cell_cut_text(cut, TABLE)
        assert _fixed6_table(np.array([[999.9999994]])) == b"999.999999\n"
        # below 1000, but its six-decimal text needs four integer digits
        assert _fixed6_table(np.array([[999.9999999999999]])) is None
        assert _fixed6_table(np.array([[1000.0]])) is None

    def test_db_floor(self):
        column = np.array([DB_FLOOR, -DB_FLOOR, 0.0])
        assert _fixed6_table(np.column_stack([column, column])) == (
            b"-200.000000,-200.000000\n200.000000,200.000000\n0.000000,0.000000\n"
        )

    def test_out_of_range_cell_falls_back_for_its_chunk(self):
        db = np.full(801, -3.0)
        db[0], db[400] = 0.0, -1234.5
        cut = cut_holding(np.linspace(-1.0, 1.0, 801), db)
        assert _fixed6_table(np.column_stack([cut.u_grid, cut.amplitude_db])) is None
        text = table_text(cut_rows, cut)
        assert text == per_cell_cut_text(cut, TABLE)
        assert "-1234.500000" in text

    def test_unsafe_cells_fall_back_for_their_chunk_only(self, tmp_path):
        n = 3 * _CHUNK_ROWS + 17
        u = np.linspace(-1.0, 1.0, n)
        db = -np.abs(u)
        db[0] = 0.0
        u[_CHUNK_ROWS + 5] = 0.0078125  # a dyadic tie, which the kernel declines
        db[2 * _CHUNK_ROWS - 3] = -1234.5  # four integer digits
        cut = PatternCut(u_grid=u, amplitude_db=db, target_amplitude=TABLE.amplitude(u))
        chunks = [np.column_stack([u[i : i + _CHUNK_ROWS], db[i : i + _CHUNK_ROWS]])
                  for i in range(0, n, _CHUNK_ROWS)]
        assert [_fixed6_table(c) is None for c in chunks] == [False, True, False, False]
        expected = per_cell_cut_text(cut, TABLE)
        text = table_text(cut_rows, cut)
        assert text == expected
        assert "0.007812," in text and ",-1234.500000," in text
        path = tmp_path / "cut.csv"
        with path.open("wb") as handle:
            cut_rows(cut, handle)
        assert path.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(THETAS, MIXED_WIDTHS), min_size=1, max_size=12),
           st.lists(PHIS, min_size=1, max_size=6), st.sampled_from([None, 2000, 2600]))
    # wide rows of one run share a block buffer: a row's short last piece must
    # not be overwritten by the next row's first piece before it is written
    @example(rows=[(0.5, -1.0), (1.5, -2.0)], phi=[0.25, 1.0, 3.0], phis=2600)
    # a one-row run (11-byte tail) left pending, then a two-row block (12-byte
    # tails): together over the write limit
    @example(rows=[(0.5, -1.0), (1.0, -12.0), (1.5, -13.0)], phi=[0.25, 1.0, 3.0], phis=2000)
    def test_surface_rows_match_per_cell_reference(self, rows, phi, phis):
        # repeated to 2000 or 2600 phis, a row fills about one block or spans several
        theta, db = np.array(rows).T
        surface = SurfaceGrid(theta=theta, phi=np.resize(phi, phis or len(phi)), amplitude_db=db)
        raw = RecordingRaw()
        with io.BufferedWriter(raw) as out:
            surface_rows(surface, out)
        assert first_difference(raw.data.decode("ascii"), per_cell_surface_text(surface)) is None
        assert max(raw.writes) <= 2 * _BLOCK_BYTES

    @given(st.lists(st.tuples(MIXED_WIDTHS, MIXED_WIDTHS), min_size=1, max_size=40))
    def test_cut_rows_with_mixed_widths_match_per_cell_reference(self, rows):
        u, db = np.array(rows).T
        db = -np.abs(db)
        db[0] = 0.0
        cut = cut_holding(u, db)
        assert table_text(cut_rows, cut) == per_cell_cut_text(cut, TABLE)

    def test_nan_and_inf_fall_back(self):
        for bad in (np.nan, np.inf, -np.inf):
            assert _fixed6_table(np.array([[0.5, bad]])) is None
