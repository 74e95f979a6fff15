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
from .sampling import build_sample_set, effective_total_count
from .targets import TargetPattern

# The JSON types each field kind accepts, and how a wrong type is named.
_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "true/false"),
    str: (str, "a string"),
}
_REQUIRED = object()  # the default of a field that must be given
# Most cells (rows x columns) in one dimension of a run's work (see
# _check_problem_size): 256 MiB of float64, far beyond any layout the solver is
# meant for, so a mistyped radius exits 2 instead of allocating gigabytes.
_MAX_DESIGN_CELLS = 2**25

# Each section's fields, once: a field's name and the rest of its _read
# arguments (kind, default, minimum, strict_min).  A ``list`` field is only
# named here; the section's own code checks it.
_GEOMETRY_FIELDS = {
    "wavelength": (float, 1.0, 0.0, True),
    "rings": (int, None, 1),
    "radii": (list,),
    "counts": (list,),
    "spacing": (float, None, 0.0, True),  # absent: half the wavelength
    "center_element": (bool, True),
}
_TARGET_FIELDS = {
    "flat_top": {"passband_edge": (float, _REQUIRED), "transition_width": (float, 0.0),
                 "nulls": (list,)},
    "equi_ripple": {"sll_db": (float, _REQUIRED), "nulls": (list,)},
    "difference": {"sll_db": (float, _REQUIRED), "nulls": (list,)},
    "table": {"path": (str,), "points": (list,)},
}
_NULL_FIELDS = {
    "center": (float, _REQUIRED),
    "depth_db": (float, _REQUIRED),
    "width": (float, _REQUIRED, 0.0, True),
}
_OPTIONAL_SECTIONS = {
    "solver": {"oversample": (float, 1.0, 1.0)},
    "output": {
        "grid_points": (int, 2001, _MIN_GRID),
        "surface": (bool, False),
        "theta_points": (int, 181, 2),
        "phi_points": (int, 73, 2),
        "directory": (str, "."),
    },
}


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
    except (OSError, UnicodeDecodeError) as exc:
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


def _to_float(value: int | float) -> float:
    """A JSON number as a float; an integer beyond the float range reads as inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _read(
    section: Mapping[str, Any],
    field: str,
    prefix: str,
    problems: list[str],
    kind: type,
    default: Any = None,
    minimum: float | None = None,
    strict_min: bool = False,
) -> Any:
    """One scalar field, checked against its kind and lower bound.

    An absent field reads as ``default``, and an absent ``_REQUIRED`` one is a
    problem.  An invalid value is noted in ``problems`` and also reads as the
    default (None for a required field), so the checks that use it go on.
    """
    fallback = None if default is _REQUIRED else default
    if field not in section:
        if default is _REQUIRED:
            problems.append(f"{prefix}.{field}: required")
        return fallback
    value = section[field]
    types, expected = _KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        problems.append(f"{prefix}.{field}: expected {expected}, got {value!r}")
        return fallback
    value = _to_float(value) if kind is float else kind(value)
    if kind is float and not math.isfinite(value):
        problems.append(f"{prefix}.{field}: must be finite")
        return fallback
    if minimum is not None and (value <= minimum if strict_min else value < minimum):
        op, fmt = (">" if strict_min else ">="), ("g" if kind is float else "")
        problems.append(f"{prefix}.{field}: must be {op} {minimum:{fmt}}, got {value:{fmt}}")
        return fallback
    return value


def _reject_unknown(
    section: Mapping[str, Any], known: Collection[str], prefix: str, problems: list[str]
) -> None:
    for key in section:
        if key not in known:
            problems.append(f"{prefix}.{key}: unknown field")


def _read_fields(
    section: Mapping[str, Any], fields: Mapping[str, tuple], prefix: str, problems: list[str]
) -> dict[str, Any]:
    """Every scalar field a table names, read by :func:`_read`."""
    return {name: _read(section, name, prefix, problems, *spec)
            for name, spec in fields.items() if spec[0] is not list}


def _resolve_geometry(raw: Mapping[str, Any], problems: list[str]) -> RingGeometry | None:
    section = raw.get("geometry")
    if not isinstance(section, dict):
        problems.append("geometry: section missing or not an object")
        return None
    _reject_unknown(section, _GEOMETRY_FIELDS, "geometry", problems)
    values = _read_fields(section, _GEOMETRY_FIELDS, "geometry", problems)
    wavelength = values["wavelength"]
    spacing = values["spacing"] if "spacing" in section else wavelength / 2.0
    has_rings = "rings" in section
    has_radii = "radii" in section
    if has_rings == has_radii:
        problems.append("geometry: give exactly one of 'rings' or 'radii'")

    # each field is checked on its own, so one bad field hides no other
    radii: tuple[float, ...] | None = None
    if values["rings"] is not None:
        radii = tuple(n * wavelength / 2.0 for n in range(1, values["rings"] + 1))
    if has_radii:
        raw_radii = section["radii"]
        if not isinstance(raw_radii, list) or not all(map(_is_number, raw_radii)):
            problems.append("geometry.radii: expected a list of numbers")
        elif not all(map(math.isfinite, map(_to_float, raw_radii))):
            problems.append("geometry.radii: must be finite")
        elif not all(b > a for a, b in zip([0.0] + raw_radii, raw_radii)):
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
        elif not all(map(math.isfinite, map(_to_float, raw_counts))):
            problems.append("geometry.counts: must be finite")
        elif not all(c >= 1 for c in raw_counts):
            problems.append(
                f"geometry.counts: each ring needs at least one element, got {raw_counts}"
            )
        else:
            counts = tuple(raw_counts)
        if has_radii and "spacing" in section:
            problems.append("geometry.spacing: not used when counts are given")
    elif radii is not None and spacing is not None:
        try:
            counts = tuple(elements_for_spacing(r, spacing) for r in radii)
        except DomainError as exc:
            problems.append(f"geometry.radii: {exc}")

    if radii is None or counts is None or has_rings == has_radii:
        return None
    try:
        return RingGeometry(wavelength, radii, counts, values["center_element"])
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
        prefix = f"target.nulls[{i}]"
        if isinstance(entry, dict):
            _reject_unknown(entry, _NULL_FIELDS, prefix, problems)
            nulls.append(_read_fields(entry, _NULL_FIELDS, prefix, problems))
        else:
            problems.append(f"{prefix}: expected an object")
    if len(nulls) < len(raw_nulls) or any(None in null.values() for null in nulls):
        return None
    if len({(n["depth_db"], n["width"]) for n in nulls}) > 1:
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
    for key in section:
        if key != "kind" and not any(key in known for known in _TARGET_FIELDS.values()):
            problems.append(f"target.{key}: unknown field")
        elif key != "kind" and fields is not None and key not in fields:
            problems.append(f"target.{key}: not used by a {kind} target")
    if fields is None:
        problems.append(f"target.kind: expected one of {tuple(_TARGET_FIELDS)}, got {kind!r}")
        return None
    values = _read_fields(section, fields, "target", problems)

    if kind == "table":
        if ("path" in section) == ("points" in section):
            problems.append("target: a table needs exactly one of 'path' or 'points'")
            return None
        path, points = values["path"], section.get("points")
        if "points" in section and not (
            isinstance(points, list)
            and all(isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
                    for p in points)
        ):
            problems.append("target.points: expected a list of [u, value] number pairs")
            return None
        if path is None and points is None:
            return None  # a path that is not a string, already noted
        try:
            table = targets.from_table(points) if path is None else targets.load_table(
                base_dir / path
            )
        except (TableFormatError, DomainError) as exc:
            problems.append(f"target: {exc}")
            return None
        return table, {"kind": kind, "points": [list(p) for p in table.params["points"]]}

    nulls = _resolve_nulls(section, problems)
    if nulls is None or None in values.values():
        return None
    try:
        if kind == "flat_top":
            target = targets.flat_top(values["passband_edge"], values["transition_width"])
        else:
            # the ring count only shapes the beam: without a valid geometry or
            # ring the target is still built, for one ring, so its fields are checked
            rings = 1 if geometry is None else geometry.n_rings
            build = targets.equi_ripple if kind == "equi_ripple" else targets.difference
            target = build(values["sll_db"], max(rings, 1))
            if rings == 0:
                problems.append(f"target: a {kind} target needs at least one ring")
                return None
        if nulls:
            centers = [null["center"] for null in nulls]
            target = targets.with_nulls(target, centers, nulls[0]["depth_db"], nulls[0]["width"])
    except DomainError as exc:
        problems.append(f"target: {exc}")
        return None
    echo = {"kind": kind, **values}
    if nulls:
        echo["nulls"] = nulls
    return target, echo


def _check_problem_size(
    geometry: RingGeometry, total: float, out: Mapping[str, Any], problems: list[str]
) -> None:
    """Note each dimension of a run's work over ``_MAX_DESIGN_CELLS`` cells.

    Each limit bounds one thing.  The fit's ``total`` samples x weights
    bounds memory: the batch half's [A b] and numpy's two QR copies of it.
    ``synthesize`` on uniform half-wave rings (one BLAS thread, numpy 2.4
    with OpenBLAS, a 2-core x86-64 host) took 0.47 s with a 39 MiB traced
    heap peak at 1000 rings, 3.5 s and 157 MiB at 2000, and 11.6 s and
    328 MiB at the limit, 2896 rings.  From the ``output`` section ``out``,
    the cut's half grid x weights and a surface's angles x weights bound the
    J0 work; their ring blocks are built in chunks of about 2 MB.  The cut's
    three-column table and the surface's theta x phi rows bound the size of
    cut.csv and surface.csv (and the cut's u, dB and target arrays, held
    whole): rows are written in bounded pieces, never held as text, and the
    surface keeps only its phi labels, 8 bytes per phi.
    """
    columns = geometry.column_count
    if total * columns > _MAX_DESIGN_CELLS:
        problems.append(
            f"geometry: the fit would take {total:.4g} samples x {columns} "
            f"weights, over the {_MAX_DESIGN_CELLS} design-cell limit; check radii, "
            f"wavelength and solver.oversample"
        )
    grid, theta, phi = out["grid_points"], out["theta_points"], out["phi_points"]
    # the cut's half-grid ring block, or its u, dB, target table if that is larger
    blocks = [max(("grid_points", grid // 2 + 1, "cut points", columns, "weights"),
                  ("grid_points", grid, "cut points", 3, "table columns"),
                  key=lambda block: block[1] * block[3])]
    if out["surface"]:
        blocks += [("theta_points", theta, "surface angles", columns, "weights"),
                   ("surface", theta, "theta", phi, "phi surface rows")]
    problems.extend(
        f"output.{field}: {rows} {row_name} x {cols} {col_name}, "
        f"over the {_MAX_DESIGN_CELLS} design-cell limit"
        for field, rows, row_name, cols, col_name in blocks if rows * cols > _MAX_DESIGN_CELLS
    )


def resolve_config(
    raw: Mapping[str, Any], base_dir: str | Path = "."
) -> tuple[ResolvedConfig, list[str]]:
    """Validate a raw config mapping and build the concrete run plan.

    Raises :class:`ConfigError` carrying every field problem found; returns
    the resolved config plus non-fatal feasibility warnings otherwise.
    """
    problems: list[str] = []
    for key in raw:
        if key not in ("geometry", "target", *_OPTIONAL_SECTIONS):
            problems.append(f"{key}: unknown section")

    geometry = _resolve_geometry(raw, problems)
    resolved_target = _resolve_target(raw, geometry, Path(base_dir), problems)
    settings = {}
    for name, fields in _OPTIONAL_SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            problems.append(f"{name}: section must be an object")
            section = {}
        _reject_unknown(section, fields, name, problems)
        settings[name] = _read_fields(section, fields, name, problems)

    if geometry is not None:
        try:  # the run's sample count, sized once for both checks below
            total = effective_total_count(geometry, settings["solver"]["oversample"])
        except OverflowError:  # a sample count beyond the float range
            total = math.inf
        _check_problem_size(geometry, total, settings["output"], problems)
    if problems or geometry is None or resolved_target is None:
        raise ConfigError(problems or ["config could not be resolved"])
    target, target_echo = resolved_target
    # a target zero at every one of the run's samples gives all-zero weights,
    # whose pattern cannot be peak-normalized
    if not build_sample_set(geometry, target, total_count=total).values.any():
        raise ConfigError([f"target: zero at every one of the run's {total} sample points"])
    out_dir = settings["output"].pop("directory")  # the run's location, not its settings
    echo = {
        "geometry": {
            "wavelength": geometry.wavelength,
            "radii": list(geometry.radii),
            "counts": list(geometry.elements_per_ring),
            "center_element": geometry.has_center_element,
        },
        "target": target_echo,
        **settings,
    }
    resolved = ResolvedConfig(
        geometry, target, **settings["solver"], **settings["output"], out_dir=out_dir, echo=echo
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
    params: Mapping[str, Any] = cfg.target.params

    edge = params.get("passband_edge")
    if edge is not None:
        if edge < resolution:
            warnings.append(
                f"passband half-width {edge:g} is below the aperture "
                f"resolution {resolution:g}; expect a poor fit"
            )
        stop_margin = 1.0 - (edge + params["transition_width"])
        if stop_margin < resolution:
            warnings.append(
                f"stopband span {stop_margin:g} beyond the transition is below the "
                f"aperture resolution {resolution:g}; expect a poor fit"
            )
    null_width = params.get("null_width")
    if null_width is not None:
        if null_width < resolution / 2.0:
            warnings.append(
                f"null half-width {null_width:g} is below half the aperture "
                f"resolution {resolution:g}; nulls may not reach depth"
            )
        for center in params["null_centers"]:
            if abs(center) + null_width > 1.0:
                warnings.append(f"null at u={center:g} extends beyond visible space")
    return warnings
