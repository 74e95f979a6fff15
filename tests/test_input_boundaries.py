"""Outside values at the package's boundaries: complex floats and fractional counts raise.

A float cast keeps only the real part of a complex value, with no more than
a ComplexWarning, and an int cast drops a count's fraction, so every
boundary that takes a float array, and every count argument, checks first.
"""

import math

import numpy as np
import pytest

from ringsynth.analysis import PatternCut, SurfaceGrid, evaluate_cut, evaluate_surface
from ringsynth.errors import DomainError
from ringsynth.geometry import RingGeometry, Weights, uniform_half_wavelength_geometry
from ringsynth.sampling import SampleSet, build_sample_set
from ringsynth.solver import (
    DesignMatrix,
    SolverState,
    build_design_matrix,
    rls_absorb,
    solve_batch,
)
from ringsynth.specialfn import bessel_j0_grid
from ringsynth.targets import difference, equi_ripple, flat_top

Z = np.complex128(1 + 2j)
GEOM = uniform_half_wavelength_geometry(2)
TARGET = flat_top(0.3, 0.1)
STATE = SolverState(Weights(0.5, (1.0,)), np.eye(2), 0, ())
CUT_U = np.linspace(-1.0, 1.0, 801)
THETA = np.linspace(0.0, math.pi / 2.0, 3)

# boundary: (call with one complex input, what the message names)
COMPLEX_INPUTS = {
    "RingGeometry-wavelength": (lambda: RingGeometry(Z, (0.5,), (6,)), "wavelength"),
    "RingGeometry-radii": (lambda: RingGeometry(1.0, (0.5 + 1j,), (6,)), "radii"),
    "Weights": (lambda: Weights(Z, (1.0,)), "excitation weights"),
    "amplitude": (lambda: TARGET.amplitude(np.array([0.1 + 0.5j])), "target abscissas"),
    "sample_value": (lambda: TARGET.sample_value([0.1, Z]), "target abscissas"),
    "SampleSet-abscissas": (lambda: SampleSet(np.array([0.1, 0.2 + 0j]), [1.0, 2.0]),
                            "abscissas"),
    "SampleSet-values": (lambda: SampleSet([0.1, 0.2], np.array([1 + 1j, 2])), "sample values"),
    "DesignMatrix": (lambda: DesignMatrix(np.ones((4, 1)) + 1j), "design matrix entries"),
    "build_design_matrix": (lambda: build_design_matrix(GEOM, np.array([0.1 + 0.5j, 0.2])),
                            "sample abscissas"),
    "solve_batch": (lambda: solve_batch(np.column_stack((np.ones((4, 1)), [1 + 1j, 1, 1, 1])),
                                        True), "augmented system"),
    "SolverState-r_factor": (lambda: SolverState(STATE.estimate, np.eye(2) + 0j, 0, ()),
                             "r_factor"),
    "rls_absorb-row": (lambda: rls_absorb(STATE, [1 + 1j, 0.5], 1.0), "row"),
    "rls_absorb-rhs": (lambda: rls_absorb(STATE, [1.0, 0.5], Z), "rhs value"),
    "PatternCut": (lambda: PatternCut(CUT_U, np.zeros(801, complex), np.ones(801)),
                   "cut amplitude_db"),
    "SurfaceGrid": (lambda: SurfaceGrid(THETA, np.array([0.0, 1.0]), np.zeros(3) + 0j),
                    "surface amplitude_db"),
    "bessel_j0_grid": (lambda: bessel_j0_grid([1 + 1j]), "bessel_j0_grid arguments"),
    # counts: a float cast of 6+1j would build six elements
    "RingGeometry-counts": (lambda: RingGeometry(1.0, (0.5,), (np.complex128(6 + 1j),)),
                            "each element count"),
    "equi_ripple": (lambda: equi_ripple(-20.0, Z), "aperture_rings"),
}


@pytest.mark.parametrize("boundary", COMPLEX_INPUTS)
def test_complex_input_raises(boundary):
    call, what = COMPLEX_INPUTS[boundary]
    with pytest.raises(DomainError, match=f"^{what} must be real, got complex values$"):
        call()


@pytest.mark.parametrize("bad", [None, math.nan, math.inf], ids=["none", "nan", "inf"])
def test_non_finite_weights_raise(bad):
    # the float cast reads None as NaN, and a NaN weight makes every pattern value NaN
    with pytest.raises(DomainError, match="^excitation weights must be finite$"):
        Weights(0.5, (1.0, bad))


WEIGHTS = Weights(0.5, (1.0, -0.25))

FRACTIONAL_COUNTS = {
    "RingGeometry": lambda: RingGeometry(1.0, (0.5,), (6.5,)),
    "build_sample_set": lambda: build_sample_set(GEOM, TARGET, total_count=20.5),
    "evaluate_cut": lambda: evaluate_cut(GEOM, WEIGHTS, TARGET, grid_points=801.7),
    "evaluate_surface-theta": lambda: evaluate_surface(GEOM, WEIGHTS, theta_points=2.5),
    "evaluate_surface-phi": lambda: evaluate_surface(GEOM, WEIGHTS, phi_points=72.5),
    "equi_ripple": lambda: equi_ripple(-20.0, 2.5),
    "difference": lambda: difference(-20.0, 2.5),
}


@pytest.mark.parametrize("site", FRACTIONAL_COUNTS)
def test_fractional_count_raises(site):
    with pytest.raises(DomainError, match="must be a whole number in the float range"):
        FRACTIONAL_COUNTS[site]()


def test_whole_float_counts_read_as_int():
    assert build_sample_set(GEOM, TARGET, total_count=20.0).total_count == 20
    assert evaluate_cut(GEOM, WEIGHTS, TARGET, grid_points=801.0).u_grid.size == 801
    surface = evaluate_surface(GEOM, WEIGHTS, theta_points=3.0, phi_points=4.0)
    assert (surface.theta.size, surface.phi.size) == (3, 4)
    for make in (equi_ripple, difference):
        rings = make(-20.0, 3.0).params["aperture_rings"]
        assert rings == 3 and type(rings) is int
