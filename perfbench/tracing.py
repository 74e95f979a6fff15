"""Spans around each call into ringsynth's modules, from outside the program.

The traced run swaps each public function for a timing wrapper at the name
the caller looks it up by (``ringsynth.runner.synthesize``,
``ringsynth.solver.rls_absorb`` and so on), runs the same ``cli.main`` jobs
as the timed run, and puts everything back afterwards.  Timed runs never
install the wrappers.

A span records name, start, end, parent and job.  Per-point target calls
(``TargetPattern.amplitude`` / ``sample_value``) run tens of thousands of
times per job, so they are counted and timed in aggregate instead, and their
time is charged to the enclosing span as child time.  A span's self time is
its duration minus its children's.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

import ringsynth.analysis
import ringsynth.cli
import ringsynth.runner
import ringsynth.solver
from ringsynth.targets import TargetPattern

# Span fields, kept as lists so a span costs one small allocation.
ID, PARENT, JOB, NAME, START, END, CHILD, ATTRS = range(8)


def _samples(args, kwargs, result) -> dict:
    return {"samples": result.total_count}


def _cells(args, kwargs, result) -> dict:
    rows, cols = result.entries.shape
    return {"cells": rows * cols}


def _elements(args, kwargs, result) -> dict:
    return {"elements": int(result.size)}


def _synthesis(args, kwargs, result) -> dict:
    samples = kwargs["samples"]
    return {
        "passes": result[1].passes_completed,
        "incremental": samples.total_count - samples.batch_count,
    }


def _bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(path.stat().st_size for path in result)}


# (module, attribute it is looked up by, span name, attribute extractor)
WRAPPED: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (ringsynth.cli, "load_config_file", "config.load_config_file", None),
    (ringsynth.cli, "resolve_config", "config.resolve_config", None),
    (ringsynth.cli, "run_synthesis", "runner.run_synthesis", None),
    (ringsynth.cli, "write_outputs", "runner.write_outputs", _bytes),
    (ringsynth.runner, "effective_total_count", "sampling.effective_total_count", None),
    (ringsynth.runner, "build_sample_set", "sampling.build_sample_set", _samples),
    (ringsynth.runner, "synthesize", "solver.synthesize", _synthesis),
    (ringsynth.runner, "evaluate_cut", "analysis.evaluate_cut", None),
    (ringsynth.runner, "measure_metrics", "analysis.measure_metrics", None),
    (ringsynth.runner, "evaluate_surface", "analysis.evaluate_surface", None),
    (ringsynth.runner, "cut_rows", "analysis.cut_rows", None),
    (ringsynth.runner, "surface_rows", "analysis.surface_rows", None),
    (ringsynth.solver, "effective_total_count", "sampling.effective_total_count", None),
    (ringsynth.solver, "build_sample_set", "sampling.build_sample_set", _samples),
    (ringsynth.solver, "build_design_matrix", "solver.build_design_matrix", _cells),
    (ringsynth.solver, "solve_batch", "solver.solve_batch", None),
    (ringsynth.solver, "rls_absorb", "solver.rls_absorb", None),
    (ringsynth.solver, "bessel_j0_grid", "specialfn.bessel_j0_grid", _elements),
    (ringsynth.analysis, "bessel_j0_grid", "specialfn.bessel_j0_grid", _elements),
)
COUNTED = (("amplitude", "targets.amplitude"), ("sample_value", "targets.sample_value"))

# Per-layer time metrics: the self time of these spans, summed over a pass.
SELF_TIME = {
    "config.resolve_s": ("config.load_config_file", "config.resolve_config"),
    "sampling.build_s": ("sampling.build_sample_set", "sampling.effective_total_count"),
    "solver.synthesize_s": ("solver.synthesize",),
    "solver.design_s": ("solver.build_design_matrix",),
    "solver.batch_s": ("solver.solve_batch",),
    "solver.absorb_s": ("solver.rls_absorb",),
    "specialfn.j0_s": ("specialfn.bessel_j0_grid",),
    "analysis.cut_s": ("analysis.evaluate_cut",),
    "analysis.metrics_s": ("analysis.measure_metrics",),
    "analysis.surface_s": ("analysis.evaluate_surface",),
    "analysis.rows_s": ("analysis.cut_rows", "analysis.surface_rows"),
    "runner.synthesis_self_s": ("runner.run_synthesis",),
    "runner.write_s": ("runner.write_outputs",),
    "cli.self_s": ("cli.main",),
}

UNITS = {name: "s" for name in SELF_TIME}
UNITS.update({
    "targets.evals": "count",
    "targets.eval_s": "s",
    "sampling.samples": "count",
    "solver.design_cells": "count",
    "solver.absorb_calls": "count",
    "solver.absorb_useful_ratio": "ratio",
    "solver.passes": "count",
    "solver.gap": "ratio",
    "specialfn.j0_evals": "count",
    "runner.bytes_written": "bytes",
    "trace.overhead_s": "s",
})


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.jobs: list[tuple[int, str]] = []  # (pass, job name), indexed by job id
        self.counters: list[dict] = []  # one {name: [calls, seconds]} per job id
        self.stack: list[list] = []
        self.last_synthesis: tuple | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             extract: Callable | None = None) -> Any:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent[ID] if parent else None, len(self.jobs) - 1,
                name, 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent[CHILD] += span[END] - span[START]
        if extract is not None:
            span[ATTRS] = extract(args, kwargs, result)
        if name == "solver.synthesize":
            self.last_synthesis = result  # checked against lstsq after the job
        return result

    def begin_job(self, name: str, pass_index: int) -> None:
        """Give the spans and counters that follow a new job id."""
        self.jobs.append((pass_index, name))
        self.counters.append({name: [0, 0.0] for _, name in COUNTED})
        self.last_synthesis = None

    def _wrap(self, name: str, fn: Callable, extract: Callable | None) -> Callable:
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extract)
        return wrapped

    def _count(self, name: str, fn: Callable) -> Callable:
        def counted(target, u):
            start = time.perf_counter()
            value = fn(target, u)
            elapsed = time.perf_counter() - start
            entry = self.counters[-1][name]
            entry[0] += 1
            entry[1] += elapsed
            if self.stack:
                self.stack[-1][CHILD] += elapsed
            return value
        return counted

    def install(self) -> None:
        for module, attr, name, extract in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, extract))
        for attr, name in COUNTED:
            original = getattr(TargetPattern, attr)
            self._saved.append((TargetPattern, attr, original))
            setattr(TargetPattern, attr, self._count(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """One JSON object per line: every span, then per-job call counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                pass_index, config = self.jobs[s[JOB]]
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "job": s[JOB], "pass": pass_index,
                    "config": config, "name": s[NAME], "start": s[START],
                    "end": s[END], "self": s[END] - s[START] - s[CHILD],
                    **({"attrs": s[ATTRS]} if s[ATTRS] else {}),
                }) + "\n")
            for job, counters in enumerate(self.counters):
                for name, (calls, seconds) in counters.items():
                    fh.write(json.dumps({"job": job, "counter": name, "calls": calls,
                                         "seconds": seconds}) + "\n")


def pass_metrics(spans: list[list], counters: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and per-job counters."""
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for s in spans:
        self_time[s[NAME]] = self_time.get(s[NAME], 0.0) + s[END] - s[START] - s[CHILD]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        for key, value in (s[ATTRS] or {}).items():
            attrs[key] = attrs.get(key, 0) + value
    metrics = {
        metric: sum(self_time.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME.items()
    }
    evals = sum(c[name][0] for c in counters for _, name in COUNTED)
    absorb_calls = calls.get("solver.rls_absorb", 0)
    metrics.update({
        "targets.evals": evals,
        "targets.eval_s": sum(c[name][1] for c in counters for _, name in COUNTED),
        "sampling.samples": attrs.get("samples", 0),
        "solver.design_cells": attrs.get("cells", 0),
        "solver.absorb_calls": absorb_calls,
        "solver.absorb_useful_ratio": (
            attrs.get("incremental", 0) / absorb_calls if absorb_calls else 1.0
        ),
        "solver.passes": attrs.get("passes", 0),
        "specialfn.j0_evals": attrs.get("elements", 0),
        "runner.bytes_written": attrs.get("bytes", 0),
    })
    return metrics


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each module's share of the summed self time (targets included)."""
    totals: dict[str, float] = {}
    for name, value in metrics.items():
        if name in SELF_TIME or name == "targets.eval_s":
            module = name.split(".")[0]
            totals[module] = totals.get(module, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return {module: round(value / whole, 4) for module, value in totals.items()}
