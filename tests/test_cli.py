"""Config schema validation and end-to-end CLI behavior."""

import json

import pytest

from ringsynth.cli import BUNDLED_EXAMPLES, bundled_config_path, main
from ringsynth.config import load_config_file, resolve_config
from ringsynth.errors import ConfigError


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

    @pytest.mark.parametrize("case", ECHO_CASES)
    def test_echo_is_resolvable(self, tmp_path, case):
        path = echo_case(tmp_path, case)
        cfg, _ = resolve_config(load_config_file(path), base_dir=tmp_path)
        again, _ = resolve_config(cfg.echo)
        assert again.echo == cfg.echo
        assert again.geometry == cfg.geometry
        assert again.grid_points == cfg.grid_points

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "missing.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config_file(path)


class TestCliRun:
    def test_bundled_names_resolve(self):
        for name in BUNDLED_EXAMPLES:
            assert bundled_config_path(name).exists()

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
        path = write_config(
            tmp_path,
            {
                "geometry": {"wavelength": -1.0, "rings": 3, "spacing": "x"},
                "target": {"kind": "equi_ripple", "sll_db": -200},
            },
        )
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "geometry.wavelength: must be > 0" in err
        assert "geometry.spacing: expected a number" in err
        assert "sidelobe level must lie in" in err

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
