"""The package exports what the pipeline runs, and nothing it retired."""

import inspect

import ringsynth
from ringsynth import config, geometry, sampling, solver, specialfn, targets
from ringsynth.geometry import Weights
from ringsynth.sampling import SampleSet
from ringsynth.solver import DesignMatrix, SolverState
from ringsynth.targets import TargetPattern

RETIRED = [
    (specialfn, "sampling_kernel"),
    (specialfn, "KernelOrder"),
    (specialfn, "TWO_PI"),
    (specialfn, "_KERNEL_SINGULARITY_TOL"),
    (specialfn, "bessel_j0"),
    (sampling, "_interpolation_kernel"),
    (sampling, "reconstruct"),
    (sampling, "min_total_samples"),
    (geometry, "chord_spacing"),
    (geometry, "array_factor"),
    (Weights, "matches"),
    (SampleSet, "batch_abscissas"),
    (SampleSet, "batch_values"),
    (SampleSet, "incremental_abscissas"),
    (SampleSet, "incremental_values"),
    (DesignMatrix, "row_count"),
    (DesignMatrix, "column_count"),
    (SolverState, "inv_gramian"),
    (solver, "_column_labels"),
    (TargetPattern, "signed_evaluator"),
    (targets, "_chebyshev_design"),
    (config, "_target_echo"),
    (config, "_get_number"),
    (config, "_get_int"),
    (config, "_DEFAULT_GRID"),
]


def test_public_surface():
    assert len(ringsynth.__all__) == len(set(ringsynth.__all__))
    for name in ringsynth.__all__:
        assert hasattr(ringsynth, name), name
    for home, name in RETIRED:
        assert not hasattr(ringsynth, name), name
        assert not hasattr(home, name), f"{home.__name__}.{name}"



def test_retired_fields_and_parameters():
    # a dataclass field without a default is no class attribute, so only an
    # instance shows that the labels are gone
    matrix = solver.build_design_matrix(geometry.uniform_half_wavelength_geometry(2), [0.5])
    assert not hasattr(matrix, "column_labels")
    assert not hasattr(matrix, "has_center")
    # the solver fits the sample set it is given: no target, no sizing of its own
    assert list(inspect.signature(solver.synthesize).parameters) == ["geom", "samples"]
    assert not hasattr(solver, "TargetPattern")
    assert "out" not in inspect.signature(specialfn.bessel_j0_grid).parameters
