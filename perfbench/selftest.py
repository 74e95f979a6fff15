"""Self-test of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

1. Every workload, shrunken (``--quick``), untraced and traced: the result
   line is correct and carries exactly the metrics BENCHMARK.json names,
   each with its unit.
2. The correctness gate passes a real job and trips when the checked
   weights are perturbed by 1e-6 relative.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits nonzero without printing a result.

Exits nonzero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

from bench import GAP_LIMIT, Gate, read_weights, reference_weights, run_job, weights_gap  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def metric_names_and_units() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads match BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--quick")
            what = f"{workload} --trace {trace}"
            if done.returncode != 0:
                check(False, f"{what}: exit {done.returncode}: {done.stderr[-400:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what}: correct, {result['attempted']} attempted, {result['failed']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{what}: every metric emitted with its unit")


def gate_trips_on_perturbed_weights() -> None:
    job = build_jobs("large-array", 7, SCRATCH / "configs", quick=True)[1]
    out = SCRATCH / "out"
    reference = reference_weights(job)
    gate = Gate({job.name: reference})
    outcome, _ = run_job(job, out)
    check(gate.check(job, out, outcome) is None, "gate passes an unperturbed job")
    weights = read_weights(out)
    check(weights_gap(weights, reference) <= GAP_LIMIT, "emitted weights match lstsq")
    check(weights_gap(weights * (1 + 1e-6), reference) > GAP_LIMIT,
          "weights perturbed by 1e-6 relative exceed the gap limit")

    # Rewrite weights.csv with every weight scaled by 1 + 1e-6 and re-check.
    path = out / "weights.csv"
    lines = path.read_text().splitlines()
    scaled = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        for col in (3, 4):
            fields[col] = f"{float(fields[col]) * (1 + 1e-6):.12e}"
        scaled.append(",".join(fields))
    path.write_text("\n".join(scaled) + "\n")
    problem = gate.check(job, out, 0)
    check(problem is not None and "lstsq" in problem, f"gate trips on perturbed weights.csv: {problem}")
    check(gate.check(job, out, 1) is not None, "gate trips on a nonzero exit")


def refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, "--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0")
    printed = [line for line in done.stdout.splitlines() if line.startswith("{")]
    check(done.returncode != 0 and not printed, f"no sources: exit {done.returncode}, no result printed")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        metric_names_and_units()
        gate_trips_on_perturbed_weights()
        refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
