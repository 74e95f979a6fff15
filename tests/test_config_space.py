"""Small random configs through ``cli.main``: every outcome is an exit code, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringsynth.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
@example((ZERO_ON_THE_SAMPLES, False))
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
