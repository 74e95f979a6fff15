"""Excitation-weight synthesis for concentric ring antenna arrays.

Build a :class:`RingGeometry`, pick or load a :class:`TargetPattern`, and
call :func:`synthesize`; the CLI wraps the same pipeline behind declarative
JSON configs.
"""

from .analysis import (
    PatternCut,
    PatternMetrics,
    SurfaceGrid,
    evaluate_cut,
    evaluate_surface,
    measure_metrics,
)
from .config import ResolvedConfig, load_config_file, resolve_config
from .errors import (
    ConfigError,
    DegeneratePatternError,
    DomainError,
    RingSynthError,
    SingularSystemError,
    TableFormatError,
)
from .geometry import (
    RingGeometry,
    Weights,
    elements_for_spacing,
    uniform_half_wavelength_geometry,
)
from .runner import SynthesisReport, run_synthesis, write_outputs
from .sampling import (
    SampleSet,
    build_sample_set,
    min_batch_samples,
)
from .solver import (
    DesignMatrix,
    SolverState,
    build_design_matrix,
    rls_absorb,
    solve_batch,
    synthesize,
)
from .targets import (
    TargetPattern,
    difference,
    equi_ripple,
    flat_top,
    from_table,
    load_table,
    with_nulls,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegeneratePatternError",
    "DesignMatrix",
    "DomainError",
    "PatternCut",
    "PatternMetrics",
    "ResolvedConfig",
    "RingGeometry",
    "RingSynthError",
    "SampleSet",
    "SingularSystemError",
    "SolverState",
    "SurfaceGrid",
    "SynthesisReport",
    "TableFormatError",
    "TargetPattern",
    "Weights",
    "build_design_matrix",
    "build_sample_set",
    "difference",
    "elements_for_spacing",
    "equi_ripple",
    "evaluate_cut",
    "evaluate_surface",
    "flat_top",
    "from_table",
    "load_config_file",
    "load_table",
    "measure_metrics",
    "min_batch_samples",
    "resolve_config",
    "rls_absorb",
    "run_synthesis",
    "solve_batch",
    "synthesize",
    "uniform_half_wavelength_geometry",
    "with_nulls",
    "write_outputs",
]
