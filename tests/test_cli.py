"""Config schema validation and end-to-end CLI behavior."""

import argparse
import dataclasses
import json
import re

import pytest

from ringsynth import config, runner
from ringsynth.cli import BUNDLED_EXAMPLES, bundled_config_path, main
from ringsynth.config import load_config_file, resolve_config
from ringsynth.errors import ConfigError
from ringsynth.geometry import Weights
from ringsynth.sampling import effective_total_count


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def minimal_config(**overrides):
    cfg = {
        "geometry": {"wavelength": 1.0, "rings": 3},
        "target": {"kind": "flat_top", "passband_edge": 0.4},
    }
    cfg.update(overrides)
    return cfg


# One config per way the echo is built; "table_path" reads the shape.csv
# that echo_case writes beside the config.
ECHO_CASES = {
    "flat_top": load_config_file(bundled_config_path("example-a-flattop")),
    "flat_top_nulls": minimal_config(
        geometry={"wavelength": 1.0, "rings": 10},
        target={"kind": "flat_top", "passband_edge": 0.3, "transition_width": 0.1,
                "nulls": [{"center": 0.6, "depth_db": -40, "width": 0.05},
                          {"center": -0.75, "depth_db": -40, "width": 0.05}]},
    ),
    "difference_nulls_no_center": minimal_config(
        geometry={"wavelength": 1.0, "rings": 12, "center_element": False},
        target={"kind": "difference", "sll_db": -25,
                "nulls": [{"center": 0.55, "depth_db": -45, "width": 0.04}]},
        solver={"oversample": 1.7},
    ),
    "equi_ripple": minimal_config(
        geometry={"wavelength": 1.0, "rings": 8},
        target={"kind": "equi_ripple", "sll_db": -25},
    ),
    "table_points": minimal_config(
        target={"kind": "table", "points": [[-1.0, 0.0], [-0.3, 1.0], [0.0, 0.8],
                                            [0.3, 1.0], [1.0, 0.0]]},
    ),
    "table_path": minimal_config(target={"kind": "table", "path": "shape.csv"}),
}


def echo_case(tmp_path, name):
    (tmp_path / "shape.csv").write_text(
        "u,amplitude\n-1.0,0.0\n-0.2,1.0\n0.2,1.0\n1.0,0.0\n", encoding="utf-8"
    )
    return write_config(tmp_path, ECHO_CASES[name])


# One config per feasibility warning text, each with its whole warning list.
WARNING_CASES = {
    "no_rings": ({"radii": []}, {"kind": "flat_top", "passband_edge": 0.4},
                 ["geometry has no rings; only a constant pattern is representable"]),
    "thin_passband_and_stopband": (
        {"rings": 2}, {"kind": "flat_top", "passband_edge": 0.1, "transition_width": 0.85},
        ["passband half-width 0.1 is below the aperture resolution 0.5; expect a poor fit",
         "stopband span 0.05 beyond the transition is below the aperture resolution 0.5; "
         "expect a poor fit"],
    ),
    "narrow_nulls": (
        {"rings": 14},
        {"kind": "equi_ripple", "sll_db": -20,
         "nulls": [{"center": 0.95, "depth_db": -40, "width": 0.01},
                   {"center": -0.5, "depth_db": -40, "width": 0.01}]},
        ["null half-width 0.01 is below half the aperture resolution 0.0714286; "
         "nulls may not reach depth"],
    ),
    "null_past_visible_space": (
        {"rings": 14},
        {"kind": "flat_top", "passband_edge": 0.3, "transition_width": 0.1,
         "nulls": [{"center": 0.9, "depth_db": -40, "width": 0.15}]},
        ["null at u=0.9 extends beyond visible space"],
    ),
    "table": ({"rings": 3}, {"kind": "table", "points": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]},
              []),
}


# Configs that fail to resolve, each with one problem its config errors must
# name; "unreadable_table" reads the non-UTF-8 shape.csv written beside it.
BROKEN_CASES = {
    "bad_fields": (
        {"geometry": {"wavelength": -1.0, "rings": 3, "spacing": "x"},
         "target": {"kind": "equi_ripple", "sll_db": -200}},
        "geometry.spacing: expected a number",
    ),
    "cut_table_limit": (
        minimal_config(geometry={"wavelength": 1.0, "rings": 1, "center_element": False},
                       output={"grid_points": 67_108_863}),
        "output.grid_points: 67108863 cut points x 3 table columns",
    ),
    "output_grid_limit": (
        minimal_config(geometry={"wavelength": 1.0, "rings": 20},
                       output={"grid_points": 400_000_001, "surface": True,
                               "theta_points": 100_000, "phi_points": 100_000}),
        "output.surface: 100000 theta x 100000 phi surface rows",
    ),
    "bad_radii_beside_bad_wavelength": (
        minimal_config(geometry={"wavelength": -1.0, "radii": [1.0, 0.5]}),
        "geometry.radii: must be strictly increasing and positive",
    ),
    "bad_counts_beside_bad_wavelength": (
        minimal_config(geometry={"wavelength": -1.0, "radii": [0.5, 1.0], "counts": [0, 6]}),
        "geometry.counts: each ring needs at least one element, got [0, 6]",
    ),
    # the rule lives in RingGeometry; config reports it under geometry
    "no_weights": (
        minimal_config(geometry={"wavelength": 1.0, "radii": [], "center_element": False}),
        "config error: geometry: needs at least one ring or a center element",
    ),
    # a center-only layout has no ring to shape a pencil or difference beam
    "ringless_equi_ripple": (
        minimal_config(geometry={"radii": [], "center_element": True},
                       target={"kind": "equi_ripple", "sll_db": -20}),
        "config error: target: a equi_ripple target needs at least one ring",
    ),
    "ringless_difference": (
        minimal_config(geometry={"radii": [], "center_element": True},
                       target={"kind": "difference", "sll_db": -20}),
        "config error: target: a difference target needs at least one ring",
    ),
    "huge_sample_count": (
        minimal_config(geometry={"wavelength": 0.01, "radii": [1e308], "counts": [6]}),
        "design-cell limit",
    ),
    "unreadable_table": (
        minimal_config(target={"kind": "table", "path": "shape.csv"}),
        "config error: target: cannot read table file",
    ),
    # targets that are zero at every midpoint the run samples: the passband
    # falls between the samples, or the table is nonzero only for u < 0
    "passband_between_samples": (
        minimal_config(geometry={"wavelength": 1.0, "rings": 1},
                       target={"kind": "flat_top", "passband_edge": 0.05,
                               "transition_width": 0}),
        "config error: target: zero at every one of the run's 8 sample points",
    ),
    "passband_between_samples_radii": (
        minimal_config(geometry={"wavelength": 1.0, "radii": [0.05]},
                       target={"kind": "flat_top", "passband_edge": 0.05,
                               "transition_width": 0}),
        "config error: target: zero at every one of the run's 8 sample points",
    ),
    "table_zero_for_positive_u": (
        minimal_config(target={"kind": "table",
                               "points": [[-1.0, 1.0], [-0.5, 0.0], [1.0, 0.0]]}),
        "config error: target: zero at every one of the run's 12 sample points",
    ),
}


class TestConfigResolution:
    def test_rule_form_geometry(self):
        cfg, _ = resolve_config(minimal_config())
        assert cfg.geometry.radii == (0.5, 1.0, 1.5)
        assert cfg.geometry.elements_per_ring == (6, 13, 19)

    def test_explicit_form_geometry(self):
        raw = minimal_config(
            geometry={"wavelength": 1.0, "radii": [0.5, 1.25], "counts": [6, 14]}
        )
        cfg, _ = resolve_config(raw)
        assert cfg.geometry.radii == (0.5, 1.25)
        assert cfg.geometry.elements_per_ring == (6, 14)

    def test_explicit_form_derives_counts_from_spacing(self):
        raw = minimal_config(geometry={"wavelength": 1.0, "radii": [0.5, 1.0]})
        cfg, _ = resolve_config(raw)
        assert cfg.geometry.elements_per_ring == (6, 13)

    def test_custom_spacing_changes_counts(self):
        raw = minimal_config(geometry={"wavelength": 1.0, "rings": 2, "spacing": 1.0})
        cfg, _ = resolve_config(raw)
        assert cfg.geometry.radii == (0.5, 1.0)
        assert cfg.geometry.elements_per_ring == (3, 6)

    def test_both_geometry_forms_rejected(self):
        raw = minimal_config(
            geometry={"wavelength": 1.0, "rings": 3, "radii": [0.5]}
        )
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert any("exactly one" in p for p in err.value.problems)

    def test_negative_wavelength_names_field(self):
        raw = minimal_config(geometry={"wavelength": -1.0, "rings": 3})
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert any("geometry.wavelength" in p for p in err.value.problems)

    def test_sampled_problem_size_is_bounded(self):
        # a last radius of 1e6 wavelengths would need about 152M samples x 21 weights
        radii = [0.5 * n for n in range(1, 20)] + [1e6]
        raw = minimal_config(geometry={"wavelength": 1.0, "radii": radii})
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert any(p.startswith("geometry: the fit would take") and "design-cell limit" in p
                   for p in err.value.problems)

    def test_largest_supported_layouts_resolve(self):
        # 2000 uniform rings sample 16.0M design cells, under the limit
        cfg, _ = resolve_config(minimal_config(geometry={"wavelength": 1.0, "rings": 2000}))
        assert cfg.geometry.n_rings == 2000

    @pytest.mark.parametrize(
        "output, field",
        [
            # 200,000,001 half-grid points x 21 weights
            ({"grid_points": 400_000_001}, "output.grid_points"),
            # 1,600,000 angles x 21 weights, written as 3.2M rows
            ({"surface": True, "theta_points": 1_600_000, "phi_points": 2},
             "output.theta_points"),
            # 1e10 rows of a surface whose ring block is only 2.1M cells
            ({"surface": True, "theta_points": 100_000, "phi_points": 100_000},
             "output.surface"),
        ],
    )
    def test_output_grids_are_bounded(self, output, field):
        raw = minimal_config(geometry={"wavelength": 1.0, "rings": 20}, output=output)
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert [p.split(":")[0] for p in err.value.problems] == [field]
        assert "design-cell limit" in err.value.problems[0]

    def test_surface_limits_apply_only_to_a_surface_run(self):
        output = {"theta_points": 100_000, "phi_points": 100_000}
        raw = minimal_config(geometry={"wavelength": 1.0, "rings": 20}, output=output)
        assert resolve_config(raw)[0].theta_points == 100_000

    def test_largest_output_grids_resolve(self):
        # the dense-output benchmark shape, and the largest cut 21 weights allow
        for output in ({"grid_points": 20001, "surface": True,
                        "theta_points": 721, "phi_points": 181},
                       {"grid_points": 2 * (2**25 // 21) - 1}):
            raw = minimal_config(geometry={"wavelength": 1.0, "rings": 20}, output=output)
            cfg, _ = resolve_config(raw)
            assert cfg.grid_points == output["grid_points"]

    @pytest.mark.parametrize("grid_points, resolves", [(2**25 // 3, True),
                                                       (2**25 // 3 + 1, False),
                                                       (2**26 - 1, False)])
    def test_cut_table_is_bounded(self, grid_points, resolves):
        # one weight: the ring block is a third of the u, dB, target table
        geometry = {"wavelength": 1.0, "rings": 1, "center_element": False}
        raw = minimal_config(geometry=geometry, output={"grid_points": grid_points})
        if resolves:
            assert resolve_config(raw)[0].grid_points == grid_points
            return
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert err.value.problems == [
            f"output.grid_points: {grid_points} cut points x 3 table columns, "
            f"over the {2**25} design-cell limit"
        ]

    def test_validate_reports_cut_table_limit(self, tmp_path, capsys):
        raw = BROKEN_CASES["cut_table_limit"][0]
        assert main(["validate", str(write_config(tmp_path, raw))]) == 2
        err = capsys.readouterr().err
        assert "output.grid_points: 67108863 cut points x 3 table columns" in err

    def test_validate_reports_output_grid_limit(self, tmp_path, capsys):
        raw = BROKEN_CASES["output_grid_limit"][0]
        assert main(["validate", str(write_config(tmp_path, raw))]) == 2
        err = capsys.readouterr().err
        assert "output.grid_points: 200000001 cut points x 21 weights" in err
        assert "output.surface: 100000 theta x 100000 phi surface rows" in err

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(minimal_config(extras={}))
        assert any("extras" in p for p in err.value.problems)

    def test_unknown_solver_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(minimal_config(solver={"passes": 3}))
        assert any("solver.passes" in p for p in err.value.problems)

    @pytest.mark.parametrize(
        "target, field",
        [
            ({"kind": "table", "points": [[-1, 0], [1, 1]], "nulls": []}, "nulls"),
            ({"kind": "table", "points": [[-1, 0], [1, 1]], "sll_db": -20}, "sll_db"),
            ({"kind": "flat_top", "passband_edge": 0.4, "sll_db": -20}, "sll_db"),
            ({"kind": "equi_ripple", "sll_db": -20, "passband_edge": 0.4}, "passband_edge"),
            ({"kind": "difference", "sll_db": -20, "transition_width": 0.1},
             "transition_width"),
            ({"kind": "flat_top", "passband_edge": 0.4, "points": [[-1, 0], [1, 1]]},
             "points"),
        ],
    )
    def test_target_field_unused_by_kind_rejected(self, target, field):
        with pytest.raises(ConfigError) as err:
            resolve_config(minimal_config(target=target))
        assert f"target.{field}: not used by a {target['kind']} target" in err.value.problems

    def test_problems_are_collected_not_first_only(self):
        raw = {
            "geometry": {"wavelength": -1.0, "rings": 0},
            "target": {"kind": "mystery"},
        }
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert len(err.value.problems) >= 2

    @pytest.mark.parametrize(
        "geometry, target, expected",
        [
            ({"wavelength": 0, "radii": [0.5, "a"], "counts": [6, 1.5]},
             {"kind": "flat_top", "passband_edge": 0.4},
             ["geometry.wavelength", "geometry.radii", "geometry.counts"]),
            ({"rings": 3, "radii": [0.5], "spacing": -1.0},
             {"kind": "flat_top", "passband_edge": 0.4},
             ["exactly one", "geometry.spacing"]),
            ({"rings": 0},
             {"kind": "difference", "sll_db": -30,
              "nulls": [{"center": 0.5, "depth_db": -20, "width": 0.05}]},
             ["geometry.rings", "null depth -20 dB must be below"]),
            ({"rings": 3, "counts": [6, 13, 19]},
             {"kind": "flat_top", "passband_edge": 0.4},
             ["geometry.counts: only used with 'radii'"]),
            ({"rings": 3},
             {"kind": "flat_top", "passband_edge": "x",
              "nulls": [3, {"center": "a", "depth_db": -40, "width": 0.05}]},
             ["target.passband_edge: expected a number", "target.nulls[0]: expected an object",
              "target.nulls[1].center: expected a number"]),
        ],
    )
    def test_each_field_reports_its_own_problem(self, geometry, target, expected):
        with pytest.raises(ConfigError) as err:
            resolve_config({"geometry": geometry, "target": target})
        for text in expected:
            assert any(text in p for p in err.value.problems), (text, err.value.problems)

    def test_table_target_inline_points(self):
        raw = minimal_config(
            target={"kind": "table", "points": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]}
        )
        cfg, _ = resolve_config(raw)
        assert cfg.target.amplitude(0.0) == pytest.approx(1.0)

    def test_table_target_needs_exactly_one_source(self):
        raw = minimal_config(target={"kind": "table"})
        with pytest.raises(ConfigError):
            resolve_config(raw)

    def test_table_target_from_file(self, tmp_path):
        table = tmp_path / "shape.csv"
        table.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n", encoding="utf-8")
        raw = minimal_config(target={"kind": "table", "path": "shape.csv"})
        cfg, _ = resolve_config(raw, base_dir=tmp_path)
        assert cfg.target.amplitude(0.0) == pytest.approx(1.0)

    def test_nulls_must_share_depth_and_width(self):
        raw = minimal_config(
            geometry={"wavelength": 1.0, "rings": 14},
            target={
                "kind": "equi_ripple",
                "sll_db": -16,
                "nulls": [
                    {"center": 0.3, "depth_db": -40, "width": 0.05},
                    {"center": 0.6, "depth_db": -30, "width": 0.05},
                ],
            },
        )
        with pytest.raises(ConfigError):
            resolve_config(raw)

    def test_feasibility_warning_for_thin_stopband(self):
        raw = minimal_config(
            geometry={"wavelength": 1.0, "rings": 2},
            target={"kind": "flat_top", "passband_edge": 0.9},
        )
        cfg, warnings = resolve_config(raw)
        assert warnings
        assert any("resolution" in w for w in warnings)

    @pytest.mark.parametrize("case", WARNING_CASES)
    def test_feasibility_warnings_exact_text(self, case):
        geometry, target, expected = WARNING_CASES[case]
        _, warnings = resolve_config(minimal_config(geometry=geometry, target=target))
        assert warnings == expected

    def test_resolve_sizes_the_run_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return effective_total_count(*args)

        monkeypatch.setattr(config, "effective_total_count", counting)
        path = bundled_config_path("example-d-nulls")
        resolve_config(load_config_file(path), base_dir=path.parent)
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ECHO_CASES)
    def test_echo_is_resolvable(self, tmp_path, case):
        path = echo_case(tmp_path, case)
        cfg, _ = resolve_config(load_config_file(path), base_dir=tmp_path)
        again, _ = resolve_config(cfg.echo)
        assert again.echo == cfg.echo
        assert again.geometry == cfg.geometry
        assert again.grid_points == cfg.grid_points

    def test_nulls_null_means_no_nulls(self):
        cfg, _ = resolve_config(minimal_config(
            target={"kind": "flat_top", "passband_edge": 0.4, "nulls": None}
        ))
        assert "nulls" not in cfg.echo["target"]
        assert "null_centers" not in cfg.target.params

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "missing.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(ConfigError):
            load_config_file(path)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err


EQUI_RIPPLE_WITH_NULL = {"kind": "equi_ripple", "sll_db": -25,
                         "nulls": [{"center": 0.5, "depth_db": -40, "width": 0.05}]}

# Every scalar field of every config section: where it sits, the target it
# needs (None for the minimal flat-top), its JSON kind, its default (None when
# it has none) and a value below its lower bound with the text that value
# gives (None when the config states no bound).
SCALAR_FIELDS = [
    ("geometry", "wavelength", None, "number", 1.0, (-1, "must be > 0, got -1")),
    ("geometry", "rings", None, "integer", None, (0, "must be >= 1, got 0")),
    ("geometry", "spacing", None, "number", 0.5, (-1, "must be > 0, got -1")),
    ("geometry", "center_element", None, "bool", True, None),
    ("target", "passband_edge", None, "number", None, None),
    ("target", "transition_width", None, "number", 0.0, None),
    ("target", "sll_db", EQUI_RIPPLE_WITH_NULL, "number", None, None),
    ("target", "path", {"kind": "table", "path": "shape.csv"}, "string", None, None),
    ("target.nulls[0]", "center", EQUI_RIPPLE_WITH_NULL, "number", None, None),
    ("target.nulls[0]", "depth_db", EQUI_RIPPLE_WITH_NULL, "number", None, None),
    ("target.nulls[0]", "width", EQUI_RIPPLE_WITH_NULL, "number", None,
     (-1, "must be > 0, got -1")),
    ("solver", "oversample", None, "number", 1.0, (0.5, "must be >= 1, got 0.5")),
    ("output", "grid_points", None, "integer", 2001, (800, "must be >= 801, got 800")),
    ("output", "surface", None, "bool", False, None),
    ("output", "theta_points", None, "integer", 181, (1, "must be >= 2, got 1")),
    ("output", "phi_points", None, "integer", 73, (1, "must be >= 2, got 1")),
    ("output", "directory", None, "string", ".", None),
]
EXPECTED = {"number": "a number", "integer": "an integer", "bool": "true/false",
            "string": "a string"}
WRONG_TYPES = {"number": ["0.5", True, None, [1.0]], "integer": [2.0, 1.5, True, "3"],
               "bool": [1, "yes", None], "string": [3, True, None]}
ABSENT = object()


def field_config(prefix, target, field, value):
    """The minimal config with one field set to value, or removed if ABSENT."""
    raw = json.loads(json.dumps(minimal_config(target=target) if target else minimal_config()))
    section = (raw["target"]["nulls"][0] if prefix == "target.nulls[0]"
               else raw.setdefault(prefix, {}))
    section.pop(field, None)
    if value is not ABSENT:
        section[field] = value
    return raw


def field_problems(prefix, target, field, value):
    with pytest.raises(ConfigError) as err:
        resolve_config(field_config(prefix, target, field, value))
    return err.value.problems


def case_id(case):
    return f"{case[0]}.{case[1]}"


class TestFieldReader:
    @pytest.mark.parametrize("case", SCALAR_FIELDS, ids=case_id)
    def test_wrong_type_is_named(self, case):
        prefix, field, target, kind, _, _ = case
        for value in WRONG_TYPES[kind]:
            problems = field_problems(prefix, target, field, value)
            assert f"{prefix}.{field}: expected {EXPECTED[kind]}, got {value!r}" in problems

    @pytest.mark.parametrize(
        "case", [c for c in SCALAR_FIELDS if c[3] == "number"], ids=case_id
    )
    def test_non_finite_number_rejected(self, case):
        prefix, field, target, _, _, _ = case
        for value in (float("nan"), float("inf"), -10**400):
            assert f"{prefix}.{field}: must be finite" in field_problems(
                prefix, target, field, value
            )

    @pytest.mark.parametrize("case", [c for c in SCALAR_FIELDS if c[5]], ids=case_id)
    def test_value_below_bound_rejected(self, case):
        prefix, field, target, _, _, (value, text) = case
        assert f"{prefix}.{field}: {text}" in field_problems(prefix, target, field, value)

    @pytest.mark.parametrize(
        "case", [c for c in SCALAR_FIELDS if c[4] is not None], ids=case_id
    )
    def test_absent_field_takes_its_default(self, case):
        prefix, field, target, _, default, _ = case
        absent, _ = resolve_config(field_config(prefix, target, field, ABSENT))
        explicit, _ = resolve_config(field_config(prefix, target, field, default))
        assert absent.echo == explicit.echo
        if field in absent.echo.get(prefix, {}):
            assert absent.echo[prefix][field] == default
        if field == "directory":
            assert absent.out_dir == default

    @pytest.mark.parametrize("field", ["passband_edge", "sll_db"])
    def test_required_target_field(self, field):
        target = {"kind": "flat_top" if field == "passband_edge" else "difference"}
        problems = field_problems("target", target, field, ABSENT)
        assert any(p.startswith(f"target.{field}: required") for p in problems), problems


class TestCliRun:
    def test_bundled_names_resolve(self):
        for name in BUNDLED_EXAMPLES:
            assert bundled_config_path(name).exists()

    def test_bundled_names_are_the_shipped_config_files(self):
        # read from the package's configs/*.json; were the list empty, every
        # test parametrized over it would run no case at all
        assert BUNDLED_EXAMPLES == ("example-a-flattop", "example-b-difference",
                                    "example-c-equiripple", "example-d-nulls")
        path = bundled_config_path("example-d-nulls.json")
        assert (path.parent.name, path.name) == ("configs", "example-d-nulls.json")
        with pytest.raises(KeyError, match="no bundled config named 'example-e'"):
            bundled_config_path("example-e")

    def test_run_emits_artifacts(self, tmp_path):
        rc = main(["run", "example-a-flattop", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        for name in ("weights.csv", "cut.csv", "report.txt"):
            assert (tmp_path / name).exists()
        assert not (tmp_path / "surface.csv").exists()

    def test_surface_flag(self, tmp_path):
        rc = main(["run", "example-a-flattop", "--out", str(tmp_path), "--surface", "--quiet"])
        assert rc == 0
        assert (tmp_path / "surface.csv").exists()

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "example-a-flattop", "--out", str(first), "--surface",
                     "--grid", "1001", "--quiet"]) == 0
        assert main(["run", "example-a-flattop", "--out", str(second), "--quiet"]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        assert (first / "surface.csv").exists()
        assert not (second / "surface.csv").exists()
        rows = [len((out / "cut.csv").read_text(encoding="utf-8").splitlines())
                for out in (first, second)]
        assert rows == [1002, 2002]

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            argv = ["run", "example-c-equiripple", "--out", str(out), "--surface", "--quiet"]
            assert main(argv) == 0
        for name in ("weights.csv", "cut.csv", "surface.csv", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("case", ECHO_CASES)
    def test_round_trip_from_echo(self, tmp_path, case):
        first = tmp_path / "first"
        config = str(echo_case(tmp_path, case))
        assert main(["run", config, "--out", str(first), "--quiet"]) == 0
        report = (first / "report.txt").read_text(encoding="utf-8")
        echo_line = next(l for l in report.splitlines() if l.startswith("config = "))
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(echo_line[len("config = "):], encoding="utf-8")

        second = tmp_path / "second"
        assert main(["run", str(echo_path), "--out", str(second), "--quiet"]) == 0
        for name in ("weights.csv", "cut.csv", "report.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_grid_override_recorded_in_echo(self, tmp_path):
        rc = main(["run", "example-a-flattop", "--out", str(tmp_path),
                   "--grid", "1001", "--quiet"])
        assert rc == 0
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        echo = json.loads(
            next(l for l in report.splitlines() if l.startswith("config = "))[9:]
        )
        assert echo["output"]["grid_points"] == 1001
        assert len((tmp_path / "cut.csv").read_text().splitlines()) == 1002

    def test_passes_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "example-a-flattop", "--out", str(tmp_path), "--passes", "0"])
        assert exc.value.code == 2

    def test_weights_file_layout(self, tmp_path):
        assert main(["run", "example-a-flattop", "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "weights.csv").read_text().splitlines()
        assert lines[0] == "ring_index,radius,count,re,im,magnitude,normalized_magnitude"
        assert lines[1].startswith("0,0,1,")  # center row
        assert len(lines) == 1 + 1 + 9  # header + center + rings

    @pytest.mark.parametrize("name", BUNDLED_EXAMPLES)
    def test_dynamic_range_reads_off_the_weights_file(self, tmp_path, name):
        assert main(["run", name, "--out", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "weights.csv").read_text().splitlines()[1:]
        magnitudes = [abs(float(row.split(",")[3])) for row in rows]
        report = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
        line = next(l for l in report if l.startswith("weights_dynamic_range = "))
        value = line[len("weights_dynamic_range = "):]
        assert value == f"{float(value):.6e}"
        assert float(value) == pytest.approx(max(magnitudes) / min(magnitudes), rel=1e-6)

    def test_dynamic_range_of_a_zero_weight_is_inf(self):
        path = bundled_config_path("example-a-flattop")
        cfg, warnings = resolve_config(load_config_file(path), base_dir=path.parent)
        report = runner.run_synthesis(cfg, warnings)
        rings = (0.0, *report.weights.rings[1:])
        zeroed = dataclasses.replace(report, weights=Weights(report.weights.center, rings))
        assert "weights_dynamic_range = inf" in runner.report_rows(zeroed)

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(
            tmp_path, {"geometry": {"wavelength": 1.0}, "target": {"kind": "flat_top"}}
        )
        assert main(["run", str(path)]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_output_path_is_a_file_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main(["run", "example-a-flattop", "--out", str(blocker), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "Traceback" not in err
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("below", ["", "sub/deeper"], ids=["file", "below-a-file"])
    def test_unusable_output_directory_found_before_the_solve(
        self, tmp_path, capsys, monkeypatch, below
    ):
        # the run used to solve and evaluate the cut before write_outputs failed
        (tmp_path / "taken").write_text("not a directory")
        out = str(tmp_path / "taken" / below) if below else str(tmp_path / "taken")
        path = write_config(tmp_path, minimal_config(output={"directory": out}))

        def never(*args, **kwargs):
            raise AssertionError("synthesize ran")

        monkeypatch.setattr(runner, "synthesize", never)
        assert main(["run", str(path), "--quiet"]) == 2
        ran = capsys.readouterr()
        taken = tmp_path / "taken"
        assert ran.err == f"output error: {taken} exists and is not a directory\n"
        assert ran.out == ""

    def test_grid_override_below_floor_rejected(self, tmp_path):
        assert main(["run", "example-a-flattop", "--out", str(tmp_path),
                     "--grid", "400"]) == 2

    def test_zero_rings_without_center_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "geometry": {"wavelength": 1.0, "radii": [], "center_element": False},
                "target": {"kind": "flat_top", "passband_edge": 0.4},
            },
        )
        assert main(["run", str(path)]) == 2

    def test_center_only_geometry(self, tmp_path):
        # the center alone is one ring of radius 0: a constant pattern
        path = write_config(
            tmp_path,
            {
                "geometry": {"wavelength": 1.0, "radii": [], "center_element": True},
                "target": {"kind": "flat_top", "passband_edge": 0.4},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert main(["run", str(path), "--quiet"]) == 0
        lines = (tmp_path / "out" / "weights.csv").read_text().splitlines()
        assert len(lines) == 1 + 1
        assert lines[1].split(",")[:3] == ["0", "0", "1"]
        cut = (tmp_path / "out" / "cut.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in cut} == {"0.000000"}

    def test_singular_geometry_exit_code(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "geometry": {
                    "wavelength": 1.0,
                    "radii": [0.5, 0.5 * (1.0 + 1e-14), 1.5],
                    "counts": [6, 6, 19],
                },
                "target": {"kind": "flat_top", "passband_edge": 0.4},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert main(["run", str(path)]) == 3

    @pytest.mark.parametrize("key", ["max_passes", "tolerance"])
    def test_retired_solver_keys_rejected(self, tmp_path, capsys, key):
        raw = minimal_config(
            solver={key: 1, "oversample": 1.0}, output={"directory": str(tmp_path)}
        )
        path = write_config(tmp_path, raw)
        assert main(["validate", str(path)]) == 2
        assert f"solver.{key}: unknown field" in capsys.readouterr().err
        assert main(["run", str(path), "--quiet"]) == 2
        assert not (tmp_path / "report.txt").exists()

    def test_malformed_output_section_not_hidden_by_overrides(self, tmp_path):
        path = write_config(tmp_path, minimal_config(output="results"))
        assert main(["run", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--surface"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "points", [[["x", 1], [0.5, 1]], [[0.0, 1.0, 2.0], [0.5, 1]], [[0.0], [0.5, 1]],
                   [[True, 1], [0.5, 1]]],
    )
    def test_malformed_table_point_exit_code(self, tmp_path, capsys, points):
        raw = minimal_config(target={"kind": "table", "points": points})
        assert main(["run", str(write_config(tmp_path, raw))]) == 2
        assert "config error: target.points: " in capsys.readouterr().err

    def test_geometry_without_center_element(self, tmp_path):
        raw = {
            "geometry": {"wavelength": 1.0, "rings": 9, "center_element": False},
            "target": {"kind": "flat_top", "passband_edge": 0.4,
                       "transition_width": 0.12},
            "output": {"directory": str(tmp_path)},
        }
        path = write_config(tmp_path, raw)
        assert main(["run", str(path), "--quiet"]) == 0
        lines = (tmp_path / "weights.csv").read_text().splitlines()
        assert lines[1].startswith("1,")  # no center row
        assert len(lines) == 1 + 9
        # the unwritten center weight, 0.0, does not make the range inf
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "weights_dynamic_range = inf" not in report

    def test_table_config_end_to_end(self, tmp_path):
        (tmp_path / "shape.csv").write_text(
            "u,amplitude\n-1.0,0.0\n-0.2,1.0\n0.2,1.0\n1.0,0.0\n", encoding="utf-8"
        )
        raw = {
            "geometry": {"wavelength": 1.0, "rings": 6},
            "target": {"kind": "table", "path": "shape.csv"},
            "output": {"directory": str(tmp_path / "out")},
        }
        path = write_config(tmp_path, raw)
        assert main(["run", str(path), "--quiet"]) == 0
        assert (tmp_path / "out" / "report.txt").exists()


class TestCliValidate:
    def test_bundled_configs_validate(self):
        for name in BUNDLED_EXAMPLES:
            assert main(["validate", name]) == 0

    def test_bundled_configs_run_quickly(self, tmp_path):
        import time

        for name in BUNDLED_EXAMPLES:
            started = time.perf_counter()
            assert main(["run", name, "--out", str(tmp_path / name), "--quiet"]) == 0
            assert time.perf_counter() - started < 10.0

    def test_validate_reports_problem_fields(self, tmp_path, capsys):
        # a bad wavelength hides neither the spacing nor the target's problem
        path = write_config(tmp_path, BROKEN_CASES["bad_fields"][0])
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "geometry.wavelength: must be > 0" in err
        assert "geometry.spacing: expected a number" in err
        assert "sidelobe level must lie in" in err

    def test_wavelength_with_overflowing_wavenumber_exits_2(self, tmp_path, capsys):
        # a subnormal wavelength is positive and finite, but 2*pi/wavelength is not
        path = write_config(
            tmp_path, minimal_config(geometry={"wavelength": 1e-310, "rings": 3})
        )
        assert main(["validate", str(path)]) == 2
        assert "2*pi/wavelength overflows" in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "2*pi/wavelength overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_reports_bad_radii_beside_bad_wavelength(self, tmp_path, capsys):
        # radii order and sign are checked on their own, not only once the
        # rest of the geometry is valid
        path = write_config(tmp_path, BROKEN_CASES["bad_radii_beside_bad_wavelength"][0])
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "geometry.wavelength: must be > 0" in err
        assert "geometry.radii: must be strictly increasing and positive" in err

    def test_validate_reports_bad_counts_beside_bad_wavelength(self, tmp_path, capsys):
        # counts are checked on their own and reported under their own name
        path = write_config(tmp_path, BROKEN_CASES["bad_counts_beside_bad_wavelength"][0])
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "geometry.wavelength: must be > 0" in err
        assert "geometry.counts: each ring needs at least one element, got [0, 6]" in err

    @pytest.mark.parametrize("counts", [[0, 6], [6, -1]])
    def test_counts_must_be_positive(self, counts):
        geometry = {"wavelength": 1.0, "radii": [0.5, 1.0], "counts": counts}
        with pytest.raises(ConfigError) as err:
            resolve_config(minimal_config(geometry=geometry))
        assert err.value.problems == [
            f"geometry.counts: each ring needs at least one element, got {counts}"
        ]

    @pytest.mark.parametrize("radii", [[0.5, 0.5], [-0.5, 1.0], [0.0, 1.0]])
    def test_radii_order_and_sign_checked_with_valid_fields(self, radii):
        with pytest.raises(ConfigError) as err:
            resolve_config(minimal_config(geometry={"wavelength": 1.0, "radii": radii}))
        assert err.value.problems == [
            f"geometry.radii: must be strictly increasing and positive, got {radii}"
        ]

    @pytest.mark.parametrize(
        "overrides, problem",
        [
            ({"geometry": {"wavelength": 1.0, "radii": [10**400]}},
             "geometry.radii: must be finite"),
            ({"target": {"kind": "table", "points": [[-1.0, 1.0], [10**400, 1.0]]}},
             "target: table entry beyond the float range"),
            ({"geometry": {"wavelength": 1.0, "radii": [1e300], "spacing": 1e-300}},
             "geometry.radii: radius 1e+300 over spacing 1e-300 is beyond the float range"),
            ({"geometry": {"wavelength": 1.0, "radii": [0.5], "counts": [10**400]}},
             "geometry.counts: must be finite"),
        ],
        ids=["huge_integer_radius", "huge_integer_table_point", "element_count_overflow",
             "huge_integer_count"],
    )
    def test_number_beyond_float_range_is_a_field_problem(
        self, tmp_path, capsys, overrides, problem
    ):
        path = write_config(tmp_path, minimal_config(**overrides))
        assert main(["validate", str(path)]) == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("case", BROKEN_CASES)
    def test_run_and_validate_report_the_same_problems(self, tmp_path, capsys, case):
        raw, problem = BROKEN_CASES[case]
        (tmp_path / "shape.csv").write_bytes(b"\xff\xfe\x00bad")
        path = write_config(tmp_path, raw)
        assert main(["validate", str(path)]) == 2
        validated = capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        ran = capsys.readouterr()
        assert problem in validated.err
        lines = validated.err.splitlines()
        assert lines and all(line.startswith("config error: ") for line in lines)
        assert ran.err == validated.err
        assert ran.out == validated.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", ["", "sub/deeper"], ids=["file", "below-a-file"])
    def test_validate_reports_the_output_error_run_reports(self, tmp_path, capsys, below):
        (tmp_path / "taken").write_text("not a directory")
        out = str(tmp_path / "taken" / below) if below else str(tmp_path / "taken")
        path = write_config(tmp_path, minimal_config(output={"directory": out}))
        assert main(["validate", str(path)]) == 2
        validated = capsys.readouterr()
        assert main(["run", str(path), "--quiet"]) == 2
        ran = capsys.readouterr()
        assert validated.err.startswith("output error: ")
        assert validated.err == ran.err
        assert validated.out == ran.out == ""

    def test_validate_creates_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "deeper"
        path = write_config(tmp_path, minimal_config(output={"directory": str(out)}))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.endswith(": ok\n")
        assert not (tmp_path / "new").exists()

    def test_spacing_with_explicit_counts_rejected(self, tmp_path, capsys):
        geometry = {"wavelength": 1.0, "radii": [0.5, 1.0], "counts": [6, 13], "spacing": 0.4}
        path = write_config(tmp_path, minimal_config(geometry=geometry))
        assert main(["validate", str(path)]) == 2
        assert "geometry.spacing: not used when counts are given" in capsys.readouterr().err

    def test_unknown_null_field_rejected(self, tmp_path, capsys):
        target = {
            "kind": "equi_ripple",
            "sll_db": -16,
            "nulls": [{"center": 0.4, "depth_db": -40, "width": 0.05, "depht": -60}],
        }
        raw = minimal_config(geometry={"wavelength": 1.0, "rings": 14}, target=target)
        assert main(["validate", str(write_config(tmp_path, raw))]) == 2
        assert "target.nulls[0].depht: unknown field" in capsys.readouterr().err

    def test_validate_feasibility_warning_exits_zero(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "geometry": {"wavelength": 1.0, "rings": 2},
                "target": {"kind": "flat_top", "passband_edge": 0.9},
            },
        )
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out

    def test_console_prints_the_report_lines(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = write_config(
            tmp_path,
            {
                "geometry": {"wavelength": 1.0, "rings": 2},
                "target": {"kind": "flat_top", "passband_edge": 0.9},
                "output": {"directory": str(out_dir)},
            },
        )
        assert main(["run", str(path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        report = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
        assert report[-1].startswith("config = ")
        timing = len(report) - 1
        assert printed[:timing] == report[:-1]
        assert re.fullmatch(r"synthesis_s = \d+\.\d{3}", printed[timing])
        assert printed[timing + 1:] == [
            f"wrote {out_dir / name}" for name in ("weights.csv", "cut.csv", "report.txt")
        ]
        warnings = [line for line in report if line.startswith("warning = ")]
        assert warnings
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [*warnings, f"{path}: ok"]
