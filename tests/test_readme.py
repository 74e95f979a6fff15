"""The README's library examples run, and its report tables name every report key."""

import re
from pathlib import Path

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
