"""Full pipeline driver: config in, weights + cuts + metrics + report out.

Output files are deterministic: the same resolved config always produces
byte-identical text.  The synthesis time is therefore printed on the console
and kept on the in-memory report object, never inside the emitted files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable

from .analysis import (
    PatternCut,
    PatternMetrics,
    SurfaceGrid,
    cut_rows,
    evaluate_cut,
    evaluate_surface,
    measure_metrics,
    metrics_rows,
    surface_rows,
)
from .config import ResolvedConfig
from .geometry import Weights
from .sampling import SampleSet, build_sample_set, effective_total_count
from .solver import SolverState, synthesize

WEIGHTS_FILE = "weights.csv"
CUT_FILE = "cut.csv"
SURFACE_FILE = "surface.csv"
REPORT_FILE = "report.txt"
# weights are real; weights.csv's zero im column stays while perfbench/bench.py reads it
_ZERO_IM = "0.000000000000e+00"


@dataclass(frozen=True)
class SynthesisReport:
    """Everything a run produced, ready for serialization."""

    weights: Weights
    state: SolverState
    cut: PatternCut
    metrics: PatternMetrics
    surface: SurfaceGrid | None
    samples: SampleSet
    config: ResolvedConfig
    warnings: tuple[str, ...]
    wall_time_s: float


def run_synthesis(cfg: ResolvedConfig, warnings: list[str] | None = None) -> SynthesisReport:
    """Execute the two-stage synthesis; the target is evaluated on the samples and the cut grid."""
    started = time.perf_counter()
    samples = build_sample_set(
        cfg.geometry,
        cfg.target,
        total_count=effective_total_count(cfg.geometry, cfg.oversample),
    )
    weights, state = synthesize(cfg.geometry, samples=samples)
    cut = evaluate_cut(cfg.geometry, weights, cfg.target, grid_points=cfg.grid_points)
    metrics = measure_metrics(cut, cfg.target)
    surface = None
    if cfg.surface:
        surface = evaluate_surface(
            cfg.geometry, weights, theta_points=cfg.theta_points, phi_points=cfg.phi_points
        )
    elapsed = time.perf_counter() - started
    return SynthesisReport(
        weights=weights,
        state=state,
        cut=cut,
        metrics=metrics,
        surface=surface,
        samples=samples,
        config=cfg,
        warnings=tuple(warnings or []),
        wall_time_s=elapsed,
    )


def _weight_table(report: SynthesisReport) -> list[tuple[int, float, int, float]]:
    """The weights weights.csv writes, as (ring_index, radius, count, value): center first."""
    geom = report.config.geometry
    table = list(zip(range(1, geom.n_rings + 1), geom.radii, geom.elements_per_ring,
                     report.weights.rings))
    if geom.has_center_element:
        table.insert(0, (0, 0.0, 1, report.weights.center))
    return table


def weights_rows(report: SynthesisReport) -> list[str]:
    """Comma-separated weight table, one row per weight of :func:`_weight_table`."""
    table = _weight_table(report)
    peak = max((abs(row[3]) for row in table), default=0.0) or 1.0
    rows = ["ring_index,radius,count,re,im,magnitude,normalized_magnitude"]
    for index, radius, count, value in table:
        mag = abs(value)
        rows.append(
            f"{index},{radius:.9g},{count},{value:.12e},{_ZERO_IM},"
            f"{mag:.12e},{mag / peak:.12e}"
        )
    return rows


def report_rows(report: SynthesisReport) -> list[str]:
    """Flat key = value report, config echo included as one canonical line."""
    rows = [
        f"batch_samples = {report.samples.batch_count}",
        f"total_samples = {report.samples.total_count}",
        "residual_trace = " + ",".join(f"{r:.12e}" for r in report.state.residual_trace),
    ]
    rows.extend(metrics_rows(report.metrics))
    # max|w| / min|w|, inf when one is exactly 0
    magnitudes = [abs(row[3]) for row in _weight_table(report)]
    smallest = min(magnitudes)
    dynamic_range = max(magnitudes) / smallest if smallest else math.inf
    rows.append(f"weights_dynamic_range = {dynamic_range:.6e}")
    for warning in report.warnings:
        rows.append(f"warning = {warning}")
    echo = json.dumps(report.config.echo, sort_keys=True, separators=(",", ":"))
    rows.append(f"config = {echo}")
    return rows


def write_outputs(report: SynthesisReport, out_dir: str | Path) -> list[Path]:
    """Emit weights.csv, cut.csv, report.txt and optionally surface.csv into ``out_dir``.

    The directory is made when it does not exist yet.  Each file is opened
    once in binary mode and its bytes written straight into it, the cut
    and surface tables in blocks, so neither table ever exists as one
    string.  Lines end in LF on every platform; report.txt is UTF-8, since
    a warning line can carry user text, and the rest is ASCII.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, write: Callable[[BinaryIO], object]) -> None:
        path = out / name
        with path.open("wb") as handle:
            write(handle)
        written.append(path)

    emit(WEIGHTS_FILE, lambda f: f.write(("\n".join(weights_rows(report)) + "\n").encode()))
    emit(CUT_FILE, lambda f: cut_rows(report.cut, f))
    surface = report.surface
    if surface is not None:
        emit(SURFACE_FILE, lambda f: surface_rows(surface, f))
    emit(REPORT_FILE, lambda f: f.write(("\n".join(report_rows(report)) + "\n").encode()))
    return written


def summary_lines(report: SynthesisReport) -> list[str]:
    """Console summary of a non-quiet run: report.txt's lines but the config echo, then the time.

    ``synthesis_s`` is ``wall_time_s``, which times ``run_synthesis`` alone:
    config resolution and file writes fall outside it.
    """
    lines = [line for line in report_rows(report) if not line.startswith("config = ")]
    lines.append(f"synthesis_s = {report.wall_time_s:.3f}")
    return lines
