"""The README's library examples run, its report tables name every report key, and
its config schema table matches the fields the config module reads."""

import json
import re
from pathlib import Path

from ringsynth import config
from ringsynth.analysis import PatternMetrics, metrics_rows
from ringsynth.cli import BUNDLED_EXAMPLES, bundled_config_path
from ringsynth.config import load_config_file, resolve_config
from ringsynth.runner import REPORT_FILE, run_synthesis, write_outputs

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def key_of(name: str) -> str:
    """A report key with its ``[...]`` argument dropped: null_depth_db[0.35] -> null_depth_db[]."""
    return re.sub(r"\[.*\]", "[]", name)


def documented_keys(heading: str) -> set[str]:
    """Keys of the rows of the README table under ``heading``."""
    section = README.split(heading + "\n", 1)[1].split("\n#", 1)[0]
    return {key_of(key) for key in re.findall(r"^\| `([^`]+)` \|", section, re.M)}


def schema_table() -> dict[str, tuple[str, str]]:
    """Field path -> (default, lower bound) cells of the README's config schema table."""
    section = README.split("## Config schema\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| .*? \| (.*?) \| (.*?) \|$", section, re.M)
    return {field: (default, bound) for field, default, bound in rows}


def schema_fields() -> dict[str, tuple]:
    """Field path -> ``_read`` arguments of every field the config module reads."""
    fields = {"target.kind": (str, config._REQUIRED)}  # the key that picks a kind's fields
    tables = [("geometry", config._GEOMETRY_FIELDS), ("target.nulls[i]", config._NULL_FIELDS),
              *(("target", specs) for specs in config._TARGET_FIELDS.values()),
              *config._OPTIONAL_SECTIONS.items()]
    for prefix, specs in tables:
        fields.update({f"{prefix}.{name}": spec for name, spec in specs.items()})
    return fields


def test_python_blocks_run_in_order():
    namespace: dict = {}
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_report_metrics_table_has_a_row_per_key():
    documented = documented_keys("#### Report metrics")
    metrics = PatternMetrics(sll_db=-20.0, passband_ripple_db=0.5,
                             null_depths_db=((0.5, -40.0),), hpbw_u=0.2,
                             rms_error_vs_target_db=1.0)
    keys = {key_of(row.split(" = ")[0]) for row in metrics_rows(metrics)}
    assert keys == {"sll_db", "passband_ripple_db", "hpbw_u", "null_depth_db[]",
                    "rms_error_vs_target_db"}
    assert keys <= documented


def test_report_keys_table_has_a_row_per_key(tmp_path):
    written = set()
    for name in BUNDLED_EXAMPLES:
        path = bundled_config_path(name)
        cfg, warnings = resolve_config(load_config_file(path), base_dir=path.parent)
        # a library caller's warning, since no bundled config draws one
        report = run_synthesis(cfg, warnings=[*warnings, "a caller's note"])
        write_outputs(report, tmp_path / name)
        text = (tmp_path / name / REPORT_FILE).read_text(encoding="utf-8")
        written |= {key_of(line.split(" = ", 1)[0]) for line in text.splitlines()}
    keys = documented_keys("#### Report keys")
    metrics = documented_keys("#### Report metrics")
    # both ways, so a key that is no longer written loses its row too
    assert written == keys | metrics
    assert not keys & metrics


def test_config_schema_table_names_every_field():
    assert set(schema_table()) == set(schema_fields())


def test_config_schema_table_defaults_match_the_code():
    # repr, so a float, an integer and a bool of one value stay apart
    documented = {}
    for field, (default, _) in schema_table().items():
        literal = re.fullmatch(r"`(.+)`", default)
        if literal:
            try:
                documented[field] = repr(json.loads(literal[1]))
            except json.JSONDecodeError:  # a rule such as `wavelength / 2`
                pass
    defaults = {field: repr(spec[1]) for field, spec in schema_fields().items()
                if len(spec) > 1 and spec[1] not in (None, config._REQUIRED)}
    assert documented == defaults


def test_config_schema_table_bounds_match_the_code():
    documented = {field: bound for field, (_, bound) in schema_table().items()
                  if re.fullmatch(r">=? \S+", bound)}
    bounds = {}
    for field, spec in schema_fields().items():
        if len(spec) > 2 and spec[2] is not None:
            strict = len(spec) > 3 and spec[3]
            bounds[field] = f"{'>' if strict else '>='} {spec[2]:g}"
    assert documented == bounds
