"""Small random configs through ``cli.main``: every outcome is an exit code, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringsynth.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from ringsynth.config import resolve_config
from ringsynth.runner import run_synthesis
from ringsynth.sampling import build_sample_set, effective_total_count
from ringsynth.solver import build_design_matrix

RADIUS = st.floats(min_value=0.05, max_value=3.0)


@st.composite
def geometries(draw):
    geometry: dict = {"wavelength": 1.0}
    if draw(st.booleans()):
        geometry["rings"] = draw(st.integers(min_value=1, max_value=6))
    else:
        radii = sorted(draw(st.lists(RADIUS, min_size=1, max_size=5, unique=True)))
        if draw(st.booleans()):
            # a near-coincident pair: the solve runs close to rank deficiency
            index = draw(st.integers(min_value=0, max_value=len(radii) - 1))
            gap = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
            radii.insert(index + 1, radii[index] + gap)
        geometry["radii"] = radii
        if draw(st.booleans()):
            counts = st.integers(min_value=1, max_value=40)
            geometry["counts"] = draw(st.lists(counts, min_size=len(radii),
                                               max_size=len(radii)))
    if draw(st.booleans()):
        geometry["center_element"] = False
    return geometry


@st.composite
def targets(draw):
    kind = draw(st.sampled_from(["flat_top", "equi_ripple", "difference", "table"]))
    if kind == "table":
        # abscissas may leave [-1, 1], which the table loader rejects
        u = sorted(draw(st.lists(st.floats(min_value=-1.2, max_value=1.2),
                                 min_size=2, max_size=6, unique=True)))
        values = st.floats(min_value=0.0, max_value=1.0)
        return {"kind": kind, "points": [[x, draw(values)] for x in u]}
    if kind == "flat_top":
        target = {"kind": kind,
                  "passband_edge": draw(st.floats(min_value=0.05, max_value=0.9)),
                  "transition_width": draw(st.floats(min_value=0.0, max_value=0.3))}
        sll = -20.0
    else:
        sll = draw(st.floats(min_value=-40.0, max_value=-10.0))
        target = {"kind": kind, "sll_db": sll}
    centers = draw(st.lists(st.floats(min_value=-0.9, max_value=0.9), max_size=2))
    if centers:
        depth = sll - draw(st.floats(min_value=1.0, max_value=30.0))
        width = draw(st.floats(min_value=0.01, max_value=0.1))
        target["nulls"] = [{"center": c, "depth_db": depth, "width": width}
                           for c in centers]
    return target


@st.composite
def configs(draw):
    raw = {"geometry": draw(geometries()), "target": draw(targets()),
           "output": {"grid_points": 801}}
    if draw(st.booleans()):
        raw["solver"] = {"oversample": draw(st.floats(min_value=1.0, max_value=3.0))}
    # an output directory that names an existing file, one time in four
    return raw, draw(st.sampled_from([False, False, False, True]))


# a passband between the run's 8 samples: the target is zero at every one of
# them, which validate and run both report as a config problem
ZERO_ON_THE_SAMPLES = {
    "geometry": {"wavelength": 1.0, "rings": 1},
    "target": {"kind": "flat_top", "passband_edge": 0.05, "transition_width": 0.0},
    "output": {"grid_points": 801},
}

# a table whose samples on [0, 1] are all the subnormal 4e-313: the weights
# carry gradual underflow (see weight_error_and_bound)
SUBNORMAL_ON_THE_SAMPLES = {
    "geometry": {"wavelength": 1.0, "rings": 3},
    "target": {"kind": "table", "points": [[-1.0, 1.0], [-0.5, 4e-313]]},
    "output": {"grid_points": 801},
}


def run_weights_and_system(raw):
    """The weights a run of ``raw`` returns, as lstsq orders them, and its sampled [A b]."""
    cfg, warnings = resolve_config(raw)
    weights = run_synthesis(cfg, warnings).weights
    samples = build_sample_set(cfg.geometry, cfg.target,
                               total_count=effective_total_count(cfg.geometry, cfg.oversample))
    a, b = build_design_matrix(cfg.geometry, samples.abscissas).entries, samples.values
    return np.array(weights.rings + (weights.center,))[: a.shape[1]], a, b


def weight_error_and_bound(raw) -> tuple[float, float]:
    """The run's relative weight error against lstsq over its samples, and the bound on it.

    The bound is 50 (k + k^2 ||r|| / (s_1 ||x_ls||)) eps with k = s_1 / s_n
    from numpy's SVD of the m-row design, the least-squares forward-error
    bound (Wedin; Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 20).  Its rounding model ignores gradual underflow, which adds an
    absolute error of up to one subnormal step t per operation, so the bound
    also carries 50 sqrt(m) t / (s_n ||x_ls||).  That term is negligible
    unless the target's samples are subnormal: a constant table near 4e-313
    gives weights about 1.2e-11 (relative) off lstsq's.  That error is one
    subnormal step, 2^-1074, in one entry, and lstsq over the samples scaled
    by 2^1000 is no closer (test_subnormal_weights_are_faithfully_rounded), so
    the weights already hold all that a double can.
    """
    x, a, b = run_weights_and_system(raw)
    x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
    # a subnormal target's weights would underflow when squared in the norms
    scale = np.abs(x_ls).max()
    x, x_ls, r = x / scale, x_ls / scale, (a @ x_ls - b) / scale
    sigma = np.linalg.svd(a, compute_uv=False)
    kappa, norm_x = sigma[0] / sigma[-1], np.linalg.norm(x_ls)
    rounding = (kappa + kappa**2 * np.linalg.norm(r) / (sigma[0] * norm_x)) * np.finfo(float).eps
    underflow = np.sqrt(len(b)) * np.finfo(float).smallest_subnormal / (sigma[-1] * scale * norm_x)
    bound = 50.0 * (rounding + underflow)
    return float(np.linalg.norm(x - x_ls) / norm_x), float(bound)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
@example((ZERO_ON_THE_SAMPLES, False))
@example((SUBNORMAL_ON_THE_SAMPLES, False))
def test_small_configs_end_in_an_exit_code(case):
    raw, out_is_a_file = case
    raw = {**raw, "output": dict(raw["output"])}  # leaves the module's example as it is
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        if out_is_a_file:
            out.write_text("not a directory")
        raw["output"]["directory"] = str(out)
        path = Path(scratch) / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            validated = main(["validate", str(path)])
            ran = main(["run", str(path), "--quiet"])
        assert validated in (EXIT_OK, EXIT_CONFIG)
        assert ran in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        assert (validated == EXIT_CONFIG) == (ran == EXIT_CONFIG)
        if out_is_a_file:
            assert ran == EXIT_CONFIG
        if ran == EXIT_NUMERICAL:
            # the only failure a config cannot predict: a rank-deficient design
            assert stderr.getvalue().startswith(
                "numerical failure: design matrix is numerically rank deficient"
            ), stderr.getvalue()
        if ran == EXIT_OK:
            for name in ("weights.csv", "cut.csv", "report.txt"):
                assert (out / name).is_file()
            error, bound = weight_error_and_bound(raw)
            assert error <= bound, (error, bound)


@pytest.mark.parametrize("tail", [4e-313, 1e-320])
def test_subnormal_weights_are_faithfully_rounded(tail):
    # lstsq on the samples scaled into the normal range, then scaled back:
    # the run's weights lie within two units of their spacing of it, so
    # scaling the solve would buy no digit that a double can hold
    raw = {**SUBNORMAL_ON_THE_SAMPLES,
           "target": {"kind": "table", "points": [[-1.0, 1.0], [-0.5, tail]]}}
    x, a, b = run_weights_and_system(raw)
    reference = np.ldexp(np.linalg.lstsq(a, np.ldexp(b, 1000), rcond=None)[0], -1000)
    assert np.all(np.abs(x - reference) <= 2 * np.spacing(np.abs(reference))), x - reference
