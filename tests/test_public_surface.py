"""The package exports what the pipeline runs, and nothing it retired."""

import ringsynth
from ringsynth import geometry, sampling, specialfn
from ringsynth.sampling import SampleSet
from ringsynth.solver import DesignMatrix

RETIRED = [
    (specialfn, "sampling_kernel"),
    (specialfn, "KernelOrder"),
    (specialfn, "TWO_PI"),
    (specialfn, "_KERNEL_SINGULARITY_TOL"),
    (sampling, "_interpolation_kernel"),
    (sampling, "reconstruct"),
    (geometry, "chord_spacing"),
    (SampleSet, "batch_abscissas"),
    (SampleSet, "batch_values"),
    (SampleSet, "incremental_abscissas"),
    (SampleSet, "incremental_values"),
    (DesignMatrix, "row_count"),
    (DesignMatrix, "column_count"),
]


def test_public_surface():
    assert len(ringsynth.__all__) == len(set(ringsynth.__all__))
    for name in ringsynth.__all__:
        assert hasattr(ringsynth, name), name
    for home, name in RETIRED:
        assert not hasattr(ringsynth, name), name
        assert not hasattr(home, name), f"{home.__name__}.{name}"

