"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import math
import time

import numpy as np

from ringsynth.analysis import evaluate_cut
from ringsynth.cli import BUNDLED_EXAMPLES, bundled_config_path
from ringsynth.config import load_config_file, resolve_config
from ringsynth.geometry import (
    RingGeometry,
    Weights,
    elements_for_spacing,
    uniform_half_wavelength_geometry,
)
from ringsynth.runner import run_synthesis
from ringsynth.sampling import (
    build_sample_set,
    effective_total_count,
    min_batch_samples,
)
from ringsynth.solver import (
    SolverState,
    _weights_from_vector,
    build_design_matrix,
    rls_absorb,
    solve_batch,
    synthesize,
)
from ringsynth.specialfn import bessel_j0_grid
from ringsynth.targets import TargetPattern, from_table


def report(line: str) -> None:
    print(line, flush=True)


def weights_vector(w: Weights) -> np.ndarray:
    return np.array(w.rings + (w.center,))


def random_geometry(rng) -> RingGeometry:
    n_rings = int(rng.integers(2, 21))
    gaps = rng.uniform(0.35, 0.75, n_rings)
    radii = tuple(np.cumsum(gaps))
    counts = tuple(elements_for_spacing(r, 0.5) for r in radii)
    return RingGeometry(1.0, radii, counts, has_center_element=True)


def random_target(rng) -> TargetPattern:
    nodes = np.linspace(-1.0, 1.0, 41)
    values = rng.standard_normal(41)
    values[np.argmax(np.abs(values))] = np.sign(values[np.argmax(np.abs(values))]) * 1.0
    return from_table(list(zip(nodes, values)))


def manufactured_target(geom: RingGeometry, x: np.ndarray) -> TargetPattern:
    k = geom.wavenumber

    def pattern(u: np.ndarray) -> np.ndarray:
        basis = bessel_j0_grid(k * np.outer(u, geom.radii)) * geom.elements_per_ring
        return basis @ x[:-1] + x[-1]

    peak = float(np.max(np.abs(pattern(np.linspace(0, 1, 2001)))))

    def signed(u: np.ndarray) -> np.ndarray:
        return pattern(u) / peak

    return TargetPattern(
        kind="manufactured",
        params={"peak": peak},
        evaluator=signed,
    )


def bundled_run(name: str):
    cfg, warnings = resolve_config(
        load_config_file(bundled_config_path(name)),
        base_dir=bundled_config_path(name).parent,
    )
    return cfg, run_synthesis(cfg, warnings=list(warnings))


def test_criterion_1_rls_matches_batch_over_full_system():
    """200 randomized cases: recursive estimate == full-system batch solve."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    cases = 0
    worst = 0.0
    while cases < 200:
        geom = random_geometry(rng)
        target = random_target(rng)
        samples = build_sample_set(geom, target)
        full = build_design_matrix(geom, samples.abscissas)
        if np.linalg.cond(full.entries) > 1e8:
            continue

        batch = build_design_matrix(geom, samples.abscissas[0::2])
        x_seed, info, _ = solve_batch(
            np.column_stack((batch.entries, samples.values[0::2])), geom.has_center_element
        )
        state = SolverState(
            estimate=_weights_from_vector(x_seed, geom.n_rings), r_factor=info[:, :-1],
            passes_completed=0, residual_trace=(0.0,),
        )
        inc = build_design_matrix(geom, samples.abscissas[1::2])
        for row, value in zip(inc.entries, samples.values[1::2]):
            state = rls_absorb(state, row, value)

        want, _, _ = solve_batch(
            np.column_stack((full.entries, samples.values)), geom.has_center_element
        )
        got = weights_vector(state.estimate)
        rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
        worst = max(worst, rel)
        assert rel <= 1e-8, f"case {cases}: relative error {rel:.3e}"
        cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f} s"
    report(f"PASS criterion 1: RLS == batch LS on 200 random cases "
           f"(worst rel err {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_2_minimum_sample_rules():
    """Sample floors for the half-wavelength layouts, and exact doubling."""
    nine = uniform_half_wavelength_geometry(9)
    fourteen = uniform_half_wavelength_geometry(14)
    assert min_batch_samples(nine) == 16
    assert effective_total_count(nine) == 32
    assert min_batch_samples(fourteen) == 26
    assert effective_total_count(fourteen) == 52
    for n in (9, 14):
        geom = uniform_half_wavelength_geometry(n)
        assert min_batch_samples(geom) == int(np.ceil(4 * (n - 1) * 0.5))
        assert effective_total_count(geom) == 2 * min_batch_samples(geom)
    report("PASS criterion 2: sample-count rules give 16/32 (9 rings) "
           "and 26/52 (14 rings)")


def test_criterion_3_flat_top_example():
    """Bundled flat-top: ripple <= 3 dB inside |u| <= 0.35, <= -15 dB beyond 0.55."""
    started = time.perf_counter()
    _, result = bundled_run("example-a-flattop")
    cut = result.cut
    passband = cut.amplitude_db[np.abs(cut.u_grid) <= 0.35]
    stopband = cut.amplitude_db[np.abs(cut.u_grid) >= 0.55]
    ripple = float(passband.max() - passband.min())
    stop = float(stopband.max())
    elapsed = time.perf_counter() - started
    assert ripple <= 3.0, f"passband ripple {ripple:.2f} dB"
    assert stop <= -15.0, f"stopband level {stop:.2f} dB"
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f} s"
    report(f"PASS criterion 3: flat-top ripple {ripple:.2f} dB, "
           f"stopband {stop:.2f} dB ({elapsed:.2f} s)")


def test_criterion_4_equi_ripple_example():
    """Bundled equi-ripple: measured SLL within 3 dB of the -30 dB goal."""
    _, result = bundled_run("example-c-equiripple")
    sll = result.metrics.sll_db
    assert sll is not None
    assert abs(sll - (-30.0)) <= 3.0, f"measured SLL {sll:.2f} dB"
    report(f"PASS criterion 4: equi-ripple SLL {sll:.2f} dB (goal -30 +/- 3)")


def test_criterion_5_deep_null_example():
    """Bundled null example: both depths <= -35 dB, SLL within 3 dB of -16."""
    _, result = bundled_run("example-d-nulls")
    metrics = result.metrics
    assert len(metrics.null_depths_db) == 2
    for center, depth in metrics.null_depths_db:
        assert depth <= -35.0, f"null at u={center:g} only {depth:.2f} dB"
    assert metrics.sll_db is not None
    assert abs(metrics.sll_db - (-16.0)) <= 3.0, f"SLL {metrics.sll_db:.2f} dB"
    depths = ", ".join(f"{d:.1f}" for _, d in metrics.null_depths_db)
    report(f"PASS criterion 5: null depths {depths} dB, SLL {metrics.sll_db:.2f} dB")


def test_criterion_6_round_trip_recovery():
    """Exact-pattern targets recover their weights through the full pipeline."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for rings in (9, 11, 10, 14):
        geom = uniform_half_wavelength_geometry(rings)
        x_true = rng.standard_normal(rings + 1)
        target = manufactured_target(geom, x_true)
        peak = float(target.params["peak"])
        w, _ = synthesize(geom, build_sample_set(geom, target))
        got = weights_vector(w) * peak
        rel = float(np.linalg.norm(got - x_true) / np.linalg.norm(x_true))
        worst = max(worst, rel)
        assert rel <= 1e-8, f"{rings}-ring round trip off by {rel:.3e}"
    report(f"PASS criterion 6: round-trip recovery on all bundled geometries "
           f"(worst rel err {worst:.2e})")


def test_criterion_7_invariant_suites(inv_gramian):
    """Compact re-run of the named invariants."""
    # J0 against a 60-term series oracle on [0, 12]
    def series(x: float) -> float:
        q = 0.25 * x * x
        term = total = 1.0
        for k in range(1, 60):
            term *= -q / (k * k)
            total += term
        return total

    xs = np.linspace(0.0, 12.0, 1000)
    oracle = np.array([series(float(x)) for x in xs])
    assert np.max(np.abs(bessel_j0_grid(xs) - oracle)) <= 1e-10

    # pattern evenness
    rng = np.random.default_rng(5)
    geom = uniform_half_wavelength_geometry(7)
    w = Weights(center=rng.standard_normal(), rings=tuple(rng.standard_normal(7)))
    target = from_table([(-1.0, 0.2), (0.0, 1.0), (1.0, 0.2)])
    cut = evaluate_cut(geom, w, target)
    assert np.array_equal(cut.amplitude_db, cut.amplitude_db[::-1])

    # P symmetry and positive definiteness after every recursive step
    samples = build_sample_set(geom, target)
    batch = build_design_matrix(geom, samples.abscissas[0::2])
    x_seed, info, _ = solve_batch(
        np.column_stack((batch.entries, samples.values[0::2])), geom.has_center_element
    )
    state = SolverState(
        estimate=_weights_from_vector(x_seed, geom.n_rings), r_factor=info[:, :-1],
        passes_completed=0, residual_trace=(0.0,),
    )
    inc = build_design_matrix(geom, samples.abscissas[1::2])
    for row, value in zip(inc.entries, samples.values[1::2]):
        state = rls_absorb(state, row, value)
        p = inv_gramian(state)
        assert np.max(np.abs(p - p.T)) <= 1e-10
        np.linalg.cholesky(p)

    # residual monotonicity from the batch seed to the final estimate, all bundled examples
    for name in BUNDLED_EXAMPLES:
        cfg, result = bundled_run(name)
        trace = result.state.residual_trace
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-10

    # dB cut scale invariance
    doubled = Weights(center=2.0 * w.center, rings=tuple(2.0 * r for r in w.rings))
    assert np.array_equal(
        evaluate_cut(geom, doubled, target).amplitude_db, cut.amplitude_db
    )
    report("PASS criterion 7: invariant suites (J0 oracle, evenness, P health, "
           "residual monotonicity, scale invariance)")


def test_criterion_8_a_few_refinements_suffice():
    """Nested refinement of the sample set shrinks the weight change >= 3x a level.

    Tripling the midpoint count keeps every old midpoint, so the sample sets
    of effective_total_count * 3^k (k = 0..3) are nested.  On the four
    bundled configs (flat-top, difference, equi-ripple, nulls) each level
    must move the weights at least three times less than the one before.
    """
    least = math.inf
    for name in BUNDLED_EXAMPLES:
        cfg, _ = resolve_config(
            load_config_file(bundled_config_path(name)),
            base_dir=bundled_config_path(name).parent,
        )
        geom, target = cfg.geometry, cfg.target
        base = effective_total_count(geom)
        levels = [
            weights_vector(synthesize(geom, build_sample_set(geom, target, total))[0])
            for total in (base * 3**k for k in range(4))
        ]
        changes = [
            float(np.linalg.norm(fine - coarse) / np.linalg.norm(fine))
            for coarse, fine in zip(levels, levels[1:])
        ]
        for earlier, later in zip(changes, changes[1:]):
            ratio = earlier / later
            least = min(least, ratio)
            assert ratio >= 3.0, f"{name}: weight changes {changes} shrink only {ratio:.2f}x"
    report(f"PASS criterion 8: nested refinement shrinks the weight change "
           f"at least {least:.1f}x a level on every bundled config")
