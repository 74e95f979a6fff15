"""Declarative synthesis configs: JSON schema, validation, and resolution.

A config document is a single JSON object with ``geometry`` and ``target``
sections plus optional ``solver`` and ``output`` knobs.  Validation collects
every problem with a field-path message instead of stopping at the first,
and resolution produces the concrete geometry/target objects together with a
canonical echo of the resolved settings for auditable reproduction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Mapping

from . import targets
from .analysis import _MIN_GRID
from .errors import ConfigError, DomainError, TableFormatError
from .geometry import RingGeometry, elements_for_spacing
from .targets import TargetPattern

# The fields each target kind reads besides ``kind``; any other is rejected.
_TARGET_FIELDS = {
    "flat_top": ("passband_edge", "transition_width", "nulls"),
    "equi_ripple": ("sll_db", "nulls"),
    "difference": ("sll_db", "nulls"),
    "table": ("path", "points"),
}
_DEFAULT_GRID = 2001


@dataclass(frozen=True)
class ResolvedConfig:
    """A validated config with concrete geometry and target objects."""

    geometry: RingGeometry
    target: TargetPattern
    oversample: float
    grid_points: int
    surface: bool
    theta_points: int
    phi_points: int
    out_dir: str
    echo: dict[str, Any]


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read and JSON-parse a config document."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    return raw


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get_number(
    section: Mapping[str, Any],
    field: str,
    prefix: str,
    problems: list[str],
    default: float | None = None,
    minimum: float | None = None,
    strict_min: bool = False,
) -> float | None:
    if field not in section:
        return default
    value = section[field]
    if not _is_number(value):
        problems.append(f"{prefix}.{field}: expected a number, got {value!r}")
        return None
    value = float(value)
    if not math.isfinite(value):
        problems.append(f"{prefix}.{field}: must be finite")
        return None
    if minimum is not None and (value <= minimum if strict_min else value < minimum):
        op = ">" if strict_min else ">="
        problems.append(f"{prefix}.{field}: must be {op} {minimum:g}, got {value:g}")
        return None
    return value


def _get_int(
    section: Mapping[str, Any],
    field: str,
    prefix: str,
    problems: list[str],
    default: int | None = None,
    minimum: int | None = None,
) -> int | None:
    if field not in section:
        return default
    value = section[field]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{prefix}.{field}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        problems.append(f"{prefix}.{field}: must be >= {minimum}, got {value}")
        return None
    return value


def _reject_unknown(
    section: Mapping[str, Any], known: Collection[str], prefix: str, problems: list[str]
) -> None:
    for key in section:
        if key not in known:
            problems.append(f"{prefix}.{key}: unknown field")


def _resolve_geometry(raw: Mapping[str, Any], problems: list[str]) -> RingGeometry | None:
    section = raw.get("geometry")
    if not isinstance(section, dict):
        problems.append("geometry: section missing or not an object")
        return None
    known = ("wavelength", "rings", "radii", "counts", "spacing", "center_element")
    _reject_unknown(section, known, "geometry", problems)
    wavelength = _get_number(section, "wavelength", "geometry", problems, default=1.0,
                             minimum=0.0, strict_min=True)
    center = section.get("center_element", True)
    if not isinstance(center, bool):
        problems.append(f"geometry.center_element: expected true/false, got {center!r}")
        center = True

    has_rings = "rings" in section
    has_radii = "radii" in section
    if has_rings == has_radii:
        problems.append("geometry: give exactly one of 'rings' or 'radii'")
    spacing = _get_number(section, "spacing", "geometry", problems,
                          default=None if wavelength is None else wavelength / 2.0,
                          minimum=0.0, strict_min=True)

    # each field is checked on its own, so one bad field hides no other
    radii: tuple[float, ...] | None = None
    if has_rings:
        n_rings = _get_int(section, "rings", "geometry", problems, minimum=1)
        if n_rings is not None and wavelength is not None:
            radii = tuple(n * wavelength / 2.0 for n in range(1, n_rings + 1))
    if has_radii:
        raw_radii = section["radii"]
        if not isinstance(raw_radii, list) or not all(map(_is_number, raw_radii)):
            problems.append("geometry.radii: expected a list of numbers")
        elif not all(math.isfinite(b) and b > a for a, b in zip([0.0] + raw_radii, raw_radii)):
            problems.append(
                f"geometry.radii: must be strictly increasing and positive, got {raw_radii}"
            )
        elif not has_rings:
            radii = tuple(float(r) for r in raw_radii)

    counts: tuple[int, ...] | None = None
    if "counts" in section:
        raw_counts = section["counts"]
        if not has_radii:
            problems.append("geometry.counts: only used with 'radii'")
        elif (
            not isinstance(raw_counts, list)
            or (radii is not None and len(raw_counts) != len(radii))
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in raw_counts)
        ):
            problems.append("geometry.counts: expected a list of integers matching radii")
        else:
            counts = tuple(int(c) for c in raw_counts)
        if has_radii and "spacing" in section:
            problems.append("geometry.spacing: not used when counts are given")
    elif radii is not None and spacing is not None:
        try:
            counts = tuple(elements_for_spacing(r, spacing) for r in radii)
        except DomainError as exc:
            problems.append(f"geometry.radii: {exc}")

    if wavelength is None or radii is None or counts is None or has_rings == has_radii:
        return None
    if len(radii) == 0 and not center:
        problems.append("geometry: needs at least one ring or a center element")
        return None
    try:
        return RingGeometry(
            wavelength=wavelength,
            radii=radii,
            elements_per_ring=counts,
            has_center_element=center,
        )
    except DomainError as exc:
        problems.append(f"geometry: {exc}")
        return None


def _resolve_nulls(
    section: Mapping[str, Any], problems: list[str]
) -> list[dict[str, float]] | None:
    raw_nulls = section.get("nulls")
    if raw_nulls is None:
        return []
    if not isinstance(raw_nulls, list):
        problems.append("target.nulls: expected a list of objects")
        return None
    nulls = []
    for i, entry in enumerate(raw_nulls):
        if not isinstance(entry, dict):
            problems.append(f"target.nulls[{i}]: expected an object")
            return None
        _reject_unknown(entry, ("center", "depth_db", "width"), f"target.nulls[{i}]", problems)
        center = _get_number(entry, "center", f"target.nulls[{i}]", problems)
        depth = _get_number(entry, "depth_db", f"target.nulls[{i}]", problems)
        width = _get_number(entry, "width", f"target.nulls[{i}]", problems,
                            minimum=0.0, strict_min=True)
        if center is None or depth is None or width is None:
            problems.append(f"target.nulls[{i}]: needs center, depth_db and width")
            return None
        nulls.append({"center": center, "depth_db": depth, "width": width})
    depths = {n["depth_db"] for n in nulls}
    widths = {n["width"] for n in nulls}
    if len(depths) > 1 or len(widths) > 1:
        problems.append("target.nulls: all notches must share one depth_db and one width")
        return None
    return nulls


def _resolve_target(
    raw: Mapping[str, Any],
    geometry: RingGeometry | None,
    base_dir: Path,
    problems: list[str],
) -> tuple[TargetPattern, dict[str, Any]] | None:
    """The target and its config echo, built from the values just validated."""
    section = raw.get("target")
    if not isinstance(section, dict):
        problems.append("target: section missing or not an object")
        return None
    kind = section.get("kind")
    fields = _TARGET_FIELDS.get(kind) if isinstance(kind, str) else None
    known = {field for kind_fields in _TARGET_FIELDS.values() for field in kind_fields}
    for key in section:
        if key == "kind":
            continue
        if key not in known:
            problems.append(f"target.{key}: unknown field")
        elif fields is not None and key not in fields:
            problems.append(f"target.{key}: not used by a {kind} target")
    if fields is None:
        problems.append(f"target.kind: expected one of {tuple(_TARGET_FIELDS)}, got {kind!r}")
        return None

    if kind == "table":
        has_path = "path" in section
        has_points = "points" in section
        if has_path == has_points:
            problems.append("target: a table needs exactly one of 'path' or 'points'")
            return None
        points = section.get("points")
        if has_points and not (
            isinstance(points, list)
            and all(isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
                    for p in points)
        ):
            problems.append("target.points: expected a list of [u, value] number pairs")
            return None
        try:
            if has_points:
                table = targets.from_table(points)
            else:
                path = Path(str(section["path"]))
                if not path.is_absolute():
                    path = base_dir / path
                table = targets.load_table(path)
        except (TableFormatError, DomainError) as exc:
            problems.append(f"target: {exc}")
            return None
        return table, {"kind": kind, "points": [list(p) for p in table.params["points"]]}

    nulls = _resolve_nulls(section, problems)
    if nulls is None:
        return None

    try:
        if kind == "flat_top":
            edge = _get_number(section, "passband_edge", "target", problems)
            width = _get_number(section, "transition_width", "target", problems, default=0.0)
            if edge is None:
                problems.append("target.passband_edge: required for flat_top")
                return None
            base = targets.flat_top(edge, width if width is not None else 0.0)
            echo = dict(kind=kind, passband_edge=edge, transition_width=width)
        else:
            sll = _get_number(section, "sll_db", "target", problems)
            if sll is None:
                problems.append("target.sll_db: required for this target kind")
                return None
            # the ring count only shapes the beam: without a valid geometry the
            # target is still built, for one ring, so its own fields are checked
            rings = 1 if geometry is None else geometry.n_rings
            if kind == "equi_ripple":
                base = targets.equi_ripple(sll, rings)
            else:
                base = targets.difference(sll, rings)
            echo = dict(kind=kind, sll_db=sll)
        if nulls:
            base = targets.with_nulls(
                base,
                [n["center"] for n in nulls],
                nulls[0]["depth_db"],
                nulls[0]["width"],
            )
            echo["nulls"] = nulls
        return base, echo
    except DomainError as exc:
        problems.append(f"target: {exc}")
        return None


def resolve_config(
    raw: Mapping[str, Any], base_dir: str | Path = "."
) -> tuple[ResolvedConfig, list[str]]:
    """Validate a raw config mapping and build the concrete run plan.

    Raises :class:`ConfigError` carrying every field problem found; returns
    the resolved config plus non-fatal feasibility warnings otherwise.
    """
    problems: list[str] = []
    base_dir = Path(base_dir)

    known = {"geometry", "target", "solver", "output"}
    for key in raw:
        if key not in known:
            problems.append(f"{key}: unknown section")

    geometry = _resolve_geometry(raw, problems)
    resolved_target = _resolve_target(raw, geometry, base_dir, problems)

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        problems.append("solver: section must be an object")
        solver_raw = {}
    oversample = _get_number(solver_raw, "oversample", "solver", problems,
                             default=1.0, minimum=1.0)
    _reject_unknown(solver_raw, ("oversample",), "solver", problems)

    output_raw = raw.get("output", {})
    if not isinstance(output_raw, dict):
        problems.append("output: section must be an object")
        output_raw = {}
    grid_points = _get_int(output_raw, "grid_points", "output", problems,
                           default=_DEFAULT_GRID, minimum=_MIN_GRID)
    surface = output_raw.get("surface", False)
    if not isinstance(surface, bool):
        problems.append(f"output.surface: expected true/false, got {surface!r}")
        surface = False
    theta_points = _get_int(output_raw, "theta_points", "output", problems,
                            default=181, minimum=2)
    phi_points = _get_int(output_raw, "phi_points", "output", problems,
                          default=73, minimum=2)
    out_dir = output_raw.get("directory", ".")
    if not isinstance(out_dir, str):
        problems.append(f"output.directory: expected a string, got {out_dir!r}")
        out_dir = "."
    _reject_unknown(output_raw, ("grid_points", "surface", "theta_points", "phi_points",
                                 "directory"), "output", problems)

    if problems or geometry is None or resolved_target is None:
        raise ConfigError(problems or ["config could not be resolved"])
    target, target_echo = resolved_target
    assert oversample is not None
    assert grid_points is not None and theta_points is not None and phi_points is not None

    echo = {
        "geometry": {
            "wavelength": geometry.wavelength,
            "radii": list(geometry.radii),
            "counts": list(geometry.elements_per_ring),
            "center_element": geometry.has_center_element,
        },
        "target": target_echo,
        "solver": {"oversample": oversample},
        "output": {
            "grid_points": grid_points,
            "surface": surface,
            "theta_points": theta_points,
            "phi_points": phi_points,
        },
    }

    resolved = ResolvedConfig(
        geometry=geometry,
        target=target,
        oversample=oversample,
        grid_points=grid_points,
        surface=surface,
        theta_points=theta_points,
        phi_points=phi_points,
        out_dir=out_dir,
        echo=echo,
    )
    return resolved, feasibility_warnings(resolved)


def feasibility_warnings(cfg: ResolvedConfig) -> list[str]:
    """Heuristic checks that the target is resolvable by the aperture.

    The smallest pattern feature an aperture of outer radius r_max can steer
    is about wavelength / (2 * r_max) wide in u; targets asking for detail
    finer than that synthesize with large residuals.
    """
    warnings: list[str] = []
    geom = cfg.geometry
    if geom.n_rings == 0:
        return ["geometry has no rings; only a constant pattern is representable"]
    resolution = geom.wavelength / (2.0 * geom.radii[-1])
    params = cfg.target.params

    edge = params.get("passband_edge")
    if edge is not None:
        width = float(params.get("transition_width", 0.0))  # type: ignore[arg-type]
        if float(edge) < resolution:  # type: ignore[arg-type]
            warnings.append(
                f"passband half-width {float(edge):g} is below the aperture "
                f"resolution {resolution:g}; expect a poor fit"
            )
        stop_margin = 1.0 - (float(edge) + width)  # type: ignore[arg-type]
        if stop_margin < resolution:
            warnings.append(
                f"stopband span {stop_margin:g} beyond the transition is below the "
                f"aperture resolution {resolution:g}; expect a poor fit"
            )
    centers = params.get("null_centers")
    if centers:
        null_width = float(params.get("null_width", 0.0))  # type: ignore[arg-type]
        if null_width < resolution / 2.0:
            warnings.append(
                f"null half-width {null_width:g} is below half the aperture "
                f"resolution {resolution:g}; nulls may not reach depth"
            )
        for c in centers:  # type: ignore[union-attr]
            if abs(float(c)) + null_width > 1.0:
                warnings.append(f"null at u={float(c):g} extends beyond visible space")
    return warnings
