"""Seeded job lists for the three benchmark workloads.

A job is one config run config-to-files, exactly as ``ringsynth run`` does
it; a pass is one run over a workload's fixed job list.  Ring counts, grid
sizes and job order are fixed per workload, so the work per job stays
structurally the same from seed to seed; the seed only draws target values
from ranges in which every job resolves and solves.  The program sees
nothing but the generated config files.

Standard library only: the launcher imports this module before any process
has pinned its BLAS threads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bundled", "large-array", "dense-output")


@dataclass(frozen=True)
class Job:
    """One ``ringsynth run`` invocation: a config path or bundled name plus flags."""

    name: str
    config: str
    flags: tuple[str, ...] = ()

    def argv(self, out_dir: Path) -> list[str]:
        return ["run", self.config, "--out", str(out_dir), "--quiet", *self.flags]


def _flat_top(rng: random.Random) -> dict:
    # At 500 rings this range keeps the batch seed within the solver's 1e-6
    # settle tolerance of the full solution (one absorption sweep); at 50
    # rings it never is (two sweeps).  Either way the sweep count does not
    # depend on the draw.
    return {
        "kind": "flat_top",
        "passband_edge": round(rng.uniform(0.25, 0.45), 4),
        "transition_width": round(rng.uniform(0.08, 0.18), 4),
    }


def _equi_ripple(rng: random.Random) -> dict:
    return {"kind": "equi_ripple", "sll_db": round(rng.uniform(-35.0, -20.0), 2)}


def _nulled(rng: random.Random) -> dict:
    target = _equi_ripple(rng)
    # Notches sit in the sidelobe region, never overlap (centers at least
    # 2 * width apart) and stay below the sidelobe level, as with_nulls asks.
    centers = [round(rng.uniform(0.30, 0.50), 4), round(rng.uniform(0.65, 0.85), 4)]
    target["nulls"] = [{"center": c, "depth_db": -40, "width": 0.06} for c in centers]
    return target


def _config(rings: int, target: dict, grid: int, surface: tuple[int, int] | None) -> dict:
    output: dict = {"grid_points": grid}
    if surface is not None:
        output.update(surface=True, theta_points=surface[0], phi_points=surface[1])
    return {"geometry": {"wavelength": 1.0, "rings": rings}, "target": target, "output": output}


def build_jobs(workload: str, seed: int, config_dir: Path, quick: bool = False) -> list[Job]:
    """The workload's job list for a seed, writing generated configs to config_dir.

    ``quick`` shrinks every generated problem so a self-test finishes in
    seconds; it keeps the job structure and is never used for measurement.
    """
    rng = random.Random(seed)
    if workload == "bundled":
        # What users run: the four bundled configs, verbatim.  Problems are
        # tiny (10-15 rings, 32-104 samples), so config resolve (target
        # construction), per-point target evaluation, analysis and file
        # writing carry the pass while the solver does little.  example-d is
        # run with --surface, as the project README shows, so the surface
        # path is timed on this workload too.
        return [
            Job("example-a-flattop", "example-a-flattop"),
            Job("example-b-difference", "example-b-difference"),
            Job("example-c-equiripple", "example-c-equiripple"),
            Job("example-d-nulls", "example-d-nulls", ("--surface",)),
        ]
    if workload == "large-array":
        # Uniform half-wave layouts at the roadmap sweep sizes above the
        # bundled ones, on the default 2001-point grid.  Solver self time
        # grows from about half the job at 50 rings to over 90% at 500,
        # while analysis and config stay roughly flat: this is where
        # absorption, block-update or replay-removal changes show, and where
        # their memory cost shows.  One job per size keeps a pass near 2 s,
        # so a run holds enough passes for a tail percentile; the 50-ring
        # job also emits the default surface.
        sizes = (12, 20, 30) if quick else (50, 200, 500)
        specs = [
            (sizes[0], _flat_top(rng), (181, 73)),
            (sizes[1], _equi_ripple(rng), None),
            (sizes[2], _flat_top(rng), None),
        ]
        grid = 2001
    elif workload == "dense-output":
        # Fine output grids on a 20-ring array: the solve is about 1% of the
        # job, and per-point target evaluation, cut J0, metrics and CSV
        # formatting carry it (721 x 181 surface, about 4.4 MB per job).
        # Array-native target or row-formatting changes show here; a solver
        # change must read as no change.  One job per pass gives a run
        # enough passes for a tail percentile well above the median.
        surface = (91, 37) if quick else (721, 181)
        grid = 2001 if quick else 20001
        specs = [(20, _nulled(rng), surface)]
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")

    config_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for index, (rings, target, surface_size) in enumerate(specs):
        name = f"{index}-{rings}-rings-{target['kind']}"
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(_config(rings, target, grid, surface_size), indent=1))
        jobs.append(Job(name, str(path)))
    return jobs
