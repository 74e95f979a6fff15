"""Workload process: runs one workload's jobs in a closed loop and checks them.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment.  One client, no threads: each job starts when the previous one
has finished and been checked.

    bench.py prepare ...   lstsq reference weights for every job -> refs.json
    bench.py measure ...   warm-up pass, then timed passes with set-up samples
                           between them (or alternating untraced/traced passes)

The references are computed in their own process so the measuring process's
peak memory is the program's, not the checker's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import ringsynth
from ringsynth import cli
from ringsynth.config import load_config_file, resolve_config
from ringsynth.sampling import build_sample_set, effective_total_count
from ringsynth.solver import build_design_matrix

from workloads import WORKLOADS, Job, build_jobs

ROOT = Path(__file__).resolve().parent.parent
# The paper's recursive-vs-batch equivalence bound.
GAP_LIMIT = 1e-8
# A tail percentile needs at least this many passes beyond it.
TAIL_BEYOND = 10
# setup_s samples, spread over the timed window so that they see the same
# mix of host load as the passes do.
SETUP_SAMPLES = 15
IMPORT_PROBE = "import time, ringsynth; print(time.monotonic(), ringsynth.__file__)"


def _config_path(job: Job) -> Path:
    path = Path(job.config)
    return path if path.exists() else cli.bundled_config_path(job.config)


def reference_weights(job: Job) -> np.ndarray:
    """np.linalg.lstsq over the job's full sampled design matrix (solver column order)."""
    path = _config_path(job)
    cfg, _ = resolve_config(load_config_file(path), base_dir=path.parent)
    samples = build_sample_set(
        cfg.geometry, cfg.target,
        total_count=effective_total_count(cfg.geometry, cfg.oversample),
    )
    matrix = build_design_matrix(cfg.geometry, samples.abscissas).entries
    return np.linalg.lstsq(matrix, np.asarray(samples.values), rcond=None)[0]


def read_weights(out_dir: Path) -> np.ndarray:
    """Weights from an emitted weights.csv, rings first and the center last."""
    rings, center = [], []
    lines = (out_dir / "weights.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        value = complex(float(fields[3]), float(fields[4]))
        (center if fields[0] == "0" else rings).append(value)
    return np.array(rings + center)


def weights_gap(weights: np.ndarray, reference: np.ndarray) -> float:
    """Relative 2-norm difference; infinite when the shapes disagree."""
    if weights.shape != reference.shape:
        return float("inf")
    return float(np.linalg.norm(weights - reference) / np.linalg.norm(reference))


def digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


class Gate:
    """Correctness check applied after every job.

    A job fails if it raised or exited nonzero, if its weights differ from
    lstsq on the full sampled system by more than GAP_LIMIT, or if its files
    are not byte-identical to what the same job wrote in the first pass.
    """

    def __init__(self, references: dict[str, np.ndarray]) -> None:
        self.references = references
        self.first: dict[str, dict[str, str]] = {}
        self.max_gap = 0.0

    def check(self, job: Job, out_dir: Path, outcome: object) -> str | None:
        if outcome != cli.EXIT_OK:
            return f"{job.name}: exit {outcome!r}"
        try:
            gap = weights_gap(read_weights(out_dir), self.references[job.name])
            files = digests(out_dir)
        except (OSError, ValueError, IndexError) as exc:
            return f"{job.name}: unreadable output: {exc}"
        self.max_gap = max(self.max_gap, gap)
        if not gap <= GAP_LIMIT:
            return f"{job.name}: weights differ from lstsq by {gap:.3e} relative"
        if self.first.setdefault(job.name, files) != files:
            return f"{job.name}: output files differ from the first pass"
        return None


def run_job(job: Job, out_dir: Path, tracer=None) -> tuple[object, float]:
    """One config-to-files run; returns (exit code or exception, seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = job.argv(out_dir)
    start = time.perf_counter()
    try:
        outcome = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, (argv,), {})
    except SystemExit as exc:  # argparse rejects arguments this way
        outcome = exc
    except Exception as exc:  # a failed job is counted, not fatal to the run
        traceback.print_exc(file=sys.stderr)
        outcome = exc
    return outcome, time.perf_counter() - start


def setup_sample() -> float:
    """Wall time from spawning a fresh interpreter until ``import ringsynth`` returns.

    The interpreter inherits this process's environment: pinned BLAS threads
    and the checkout's ``src`` on ``PYTHONPATH``.
    """
    start = time.monotonic()  # CLOCK_MONOTONIC: the same clock in the child on Linux
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    imported, location = done.stdout.split()
    if not Path(location).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"ringsynth imported from {location}, not {ROOT / 'src'}")
    return float(imported) - start


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure(args: argparse.Namespace) -> dict:
    work = Path(args.work)
    jobs = build_jobs(args.workload, args.seed, work / "configs", args.quick)
    refs = json.loads((work / "refs.json").read_text())
    gate = Gate({name: np.asarray(value) for name, value in refs.items()})
    outs = [work / "out" / job.name for job in jobs]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    attempted = failed = timed_ok = 0
    failures: list[str] = []
    plain, traced = [], []  # pass times
    layer: list[dict] = []  # per traced pass
    gaps: list[float] = []  # in-memory synthesize result vs lstsq, traced jobs

    def run_pass(pass_index: int, trace_this: bool) -> float:
        nonlocal attempted, failed, timed_ok
        total = 0.0
        first_span, first_job = (len(tracer.spans), len(tracer.counters)) if tracer else (0, 0)
        if trace_this:
            tracer.install()
        try:
            for job, out in zip(jobs, outs):
                if trace_this:
                    tracer.begin_job(job.name, pass_index)
                outcome, seconds = run_job(job, out, tracer if trace_this else None)
                total += seconds
                attempted += 1
                problem = gate.check(job, out, outcome)
                if trace_this and tracer.last_synthesis is not None:
                    reference = gate.references[job.name]
                    weights, _ = tracer.last_synthesis
                    values = [*weights.rings, weights.center][: reference.size]
                    gap = weights_gap(np.array(values), reference)
                    gaps.append(gap)
                    if problem is None and not gap <= GAP_LIMIT:
                        problem = f"{job.name}: in-memory weights differ from lstsq by {gap:.3e}"
                if problem is None:
                    if pass_index >= 0:
                        timed_ok += 1
                else:
                    failed += 1
                    failures.append(problem)
        finally:
            if trace_this:
                tracer.uninstall()
        if trace_this:
            layer.append(tracing.pass_metrics(tracer.spans[first_span:], tracer.counters[first_job:]))
        return total

    run_pass(-1, False)  # warm-up: fills caches, records each job's first-pass files
    setup: list[float] = []
    next_setup = start = time.monotonic()
    deadline = start + args.seconds
    pass_index = 0
    while True:
        trace_this = tracer is not None and pass_index % 2 == 1
        (traced if trace_this else plain).append(run_pass(pass_index, trace_this))
        pass_index += 1
        if tracer is None and time.monotonic() >= next_setup:
            setup.append(setup_sample())
            next_setup += args.seconds / SETUP_SAMPLES
        # An untraced run outlasts its deadline until it has the passes a
        # tail percentile needs; a traced run needs one pass of each kind.
        enough = len(traced) >= 1 if tracer else len(plain) > TAIL_BEYOND
        if time.monotonic() >= deadline and enough:
            break

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(jobs),
        "passes": len(plain),
        "fail_rate": failed / attempted,
        "max_file_gap": gate.max_gap,
        "failures": failures[:5],
        "env": environment(),
        "ringsynth": ringsynth.__file__,
    }
    if tracer is None:
        tail_s, tail_pct = tail(plain)
        # The host drifts between a fast and a slow state for seconds to
        # minutes.  The fastest pass and the tail each sit in one state; the
        # median and the mean flip between them from run to run, so they are
        # reported in the detail line and not as bounded metrics.
        metrics = {
            "pass_s.min": (min(plain), "s"),
            "pass_s.tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        detail.update({
            "pass_s.tail_percentile": round(tail_pct, 2),
            "pass_s.p50": statistics.median(plain),
            "jobs_per_s": timed_ok / sum(plain),
            "setup_samples": len(setup),
        })
    else:
        metrics = {
            name: (statistics.median_low(p[name] for p in layer), tracing.UNITS[name])
            for name in layer[0]
        }
        metrics["solver.gap"] = (max(gaps, default=float("nan")), "ratio")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        detail["traced_passes"] = len(traced)
        detail["layer_shares"] = tracing.layer_shares({k: v for k, (v, _) in metrics.items()})
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not Path(ringsynth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ringsynth imported from {ringsynth.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.mode == "prepare":
        work = Path(args.work)
        jobs = build_jobs(args.workload, args.seed, work / "configs", args.quick)
        refs = {job.name: reference_weights(job).tolist() for job in jobs}
        work.mkdir(parents=True, exist_ok=True)
        (work / "refs.json").write_text(json.dumps(refs))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
