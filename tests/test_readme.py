"""The README's library examples run, and its metric table names every report key."""

import re
from pathlib import Path

from ringsynth.analysis import PatternMetrics, metrics_rows

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run_in_order():
    namespace: dict = {}
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_report_metrics_table_has_a_row_per_key():
    section = README.split("#### Report metrics", 1)[1].split("\n#", 1)[0]
    documented = {re.sub(r"\[.*\]", "[]", key)
                  for key in re.findall(r"^\| `([^`]+)` \|", section, re.M)}
    metrics = PatternMetrics(sll_db=-20.0, passband_ripple_db=0.5,
                             null_depths_db=((0.5, -40.0),), hpbw_u=0.2,
                             rms_error_vs_target_db=1.0)
    keys = {re.sub(r"\[.*\]", "[]", row.split(" = ")[0]) for row in metrics_rows(metrics)}
    assert keys == {"sll_db", "passband_ripple_db", "hpbw_u", "null_depth_db[]",
                    "rms_error_vs_target_db"}
    assert keys <= documented
