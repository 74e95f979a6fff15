"""Outside values at the package's boundaries: each failure class raises DomainError.

A float cast keeps only the real part of a complex value, with no more than
a ComplexWarning, an int cast drops a count's fraction, and NaN, a wrong
rank or a value numpy cannot read fails late or not at all, so every
boundary that takes floats, and every count argument, reads them through
one checked cast.  One table per failure class.
"""

import math
import re

import numpy as np
import pytest

from ringsynth.analysis import PatternCut, SurfaceGrid, evaluate_cut, evaluate_surface
from ringsynth.errors import DomainError
from ringsynth.geometry import (
    RingGeometry,
    Weights,
    elements_for_spacing,
    uniform_half_wavelength_geometry,
)
from ringsynth.sampling import SampleSet, build_sample_set, effective_total_count
from ringsynth.solver import (
    DesignMatrix,
    SolverState,
    build_design_matrix,
    rls_absorb,
    solve_batch,
)
from ringsynth.specialfn import bessel_j0_grid
from ringsynth.errors import TableFormatError
from ringsynth.targets import difference, equi_ripple, flat_top, from_table, with_nulls

Z = np.complex128(1 + 2j)
GEOM = uniform_half_wavelength_geometry(2)
TARGET = flat_top(0.3, 0.1)
STATE = SolverState(Weights(0.5, (1.0,)), np.eye(2), 0, ())
WEIGHTS = Weights(0.5, (1.0, -0.25))
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
    # scalar parameters, each with a valid real part: float() kept it, with a warning
    "flat_top-edge": (lambda: flat_top(np.complex128(0.3 + 1j)), "passband edge"),
    "flat_top-edge-python": (lambda: flat_top(0.3 + 1j), "passband edge"),
    "flat_top-width": (lambda: flat_top(0.3, np.complex128(0.1 + 1j)), "transition width"),
    "equi_ripple-sll": (lambda: equi_ripple(np.complex128(-20 + 1j), 3), "sidelobe level"),
    "difference-sll": (lambda: difference(np.complex128(-20 + 1j), 3), "sidelobe level"),
    "with_nulls-centers": (lambda: with_nulls(TARGET, [np.complex128(0.6 + 1j)], -40.0, 0.05),
                           "null centers"),
    "with_nulls-depth": (lambda: with_nulls(TARGET, [0.6], np.complex128(-40 + 1j), 0.05),
                         "null depth"),
    "with_nulls-width": (lambda: with_nulls(TARGET, [0.6], -40.0, np.complex128(0.05 + 1j)),
                         "null width"),
    "elements_for_spacing-radius": (lambda: elements_for_spacing(np.complex128(1 + 1j), 0.5),
                                    "radius"),
    "elements_for_spacing-spacing": (lambda: elements_for_spacing(1.0, 0.5 + 1j),
                                     "target spacing"),
    "effective_total_count": (lambda: effective_total_count(GEOM, np.complex128(2 + 1j)),
                              "oversample factor"),
    "uniform_half_wavelength_geometry": (
        lambda: uniform_half_wavelength_geometry(2, np.complex128(1 + 1j)), "wavelength"),
    "from_table-numpy": (lambda: from_table([(-1.0, 1.0), (1.0, np.complex128(1 + 1j))]),
                         "table entry"),
    "from_table-python": (lambda: from_table([(-1.0, 1.0), (1.0, 1 + 1j)]), "table entry"),
}


@pytest.mark.parametrize("boundary", COMPLEX_INPUTS)
def test_complex_input_raises(boundary):
    call, what = COMPLEX_INPUTS[boundary]
    with pytest.raises(DomainError, match=f"^{what} must be real, got complex values$"):
        call()


# boundary: (call with an input of the wrong rank, the whole message)
WRONG_RANK = {
    "solve_batch-scalar": (lambda: solve_batch(np.float64(1.0), True),
                           "augmented system must be 2-D, got shape ()"),
    "build_design_matrix-scalar": (lambda: build_design_matrix(GEOM, 0.5),
                                   "sample abscissas must be 1-D, got shape ()"),
    "build_design_matrix-2d": (lambda: build_design_matrix(GEOM, np.full((2, 2), 0.5)),
                               "sample abscissas must be 1-D, got shape (2, 2)"),
    "rls_absorb-rhs": (lambda: rls_absorb(STATE, [1.0, 0.5], [1.0]),
                       "rhs value must be 0-D, got shape (1,)"),
    "SolverState-r_factor": (lambda: SolverState(STATE.estimate, np.ones(2), 0, ()),
                             "r_factor must be 2-D, got shape (2,)"),
    "RingGeometry-radii": (lambda: RingGeometry(1.0, 0.5, (3,)),
                           "radii must be 1-D, got shape ()"),
    "RingGeometry-wavelength": (lambda: RingGeometry(np.array([1.0, 2.0]), (0.5,), (6,)),
                                "wavelength must be 0-D, got shape (2,)"),
    "SampleSet": (lambda: SampleSet(0.5, 1.0), "abscissas must be 1-D, got shape ()"),
}


@pytest.mark.parametrize("boundary", WRONG_RANK)
def test_wrong_rank_raises(boundary):
    call, message = WRONG_RANK[boundary]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# boundary: (call with a NaN or an infinity, what the message names)
NON_FINITE = {
    "amplitude": (lambda: flat_top(0.3).amplitude(math.nan), "target abscissas"),
    "sample_value": (lambda: TARGET.sample_value([0.1, -math.inf]), "target abscissas"),
    "DesignMatrix": (lambda: DesignMatrix(np.array([[1.0, math.nan]])),
                     "design matrix entries"),
    "SolverState-r_factor": (lambda: SolverState(STATE.estimate, np.diag([1.0, math.nan]), 0, ()),
                             "r_factor"),
    "rls_absorb-rhs": (lambda: rls_absorb(STATE, [1.0, 0.5], math.inf), "rhs value"),
    "SampleSet-abscissas": (lambda: SampleSet([0.1, math.nan], [1.0, 2.0]), "abscissas"),
    "bessel_j0_grid": (lambda: bessel_j0_grid([1.0, math.inf]), "bessel_j0_grid arguments"),
    "flat_top": (lambda: flat_top(math.nan), "passband edge"),
    "equi_ripple": (lambda: equi_ripple(math.nan, 3), "sidelobe level"),
    "elements_for_spacing": (lambda: elements_for_spacing(math.inf, 0.5), "radius"),
    "effective_total_count": (lambda: effective_total_count(GEOM, math.nan), "oversample factor"),
    "RingGeometry-wavelength": (lambda: RingGeometry(math.nan, (0.5,), (6,)), "wavelength"),
    "evaluate_cut-count": (lambda: evaluate_cut(GEOM, WEIGHTS, TARGET, grid_points=math.inf),
                           "grid_points"),
}


@pytest.mark.parametrize("boundary", NON_FINITE)
def test_non_finite_input_raises(boundary):
    call, what = NON_FINITE[boundary]
    with pytest.raises(DomainError, match=f"^{what} must be finite$"):
        call()


# boundary: (call with a value numpy cannot read as floats, the whole message)
UNREADABLE = {
    "Weights-ragged": (lambda: Weights(0.0, ((1.0, 2.0),)),
                       "excitation weights cannot be read as floats"),
    "flat_top-text": (lambda: flat_top("wide"), "passband edge cannot be read as floats"),
    "flat_top-huge-int": (lambda: flat_top(10**400), "passband edge beyond the float range"),
    "RingGeometry-huge-int": (lambda: RingGeometry(1.0, (10**400,), (6,)),
                              "radii beyond the float range"),
}


@pytest.mark.parametrize("boundary", UNREADABLE)
def test_unreadable_input_raises(boundary):
    call, message = UNREADABLE[boundary]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "points, message",
    [([(-1.0, 1.0), (1.0, math.nan)], "non-finite table entry (1.0, nan)"),
     ([(-2.0, 1.0), (1.0, 1.0)], "table abscissa -2.0 outside [-1, 1]")],
    ids=["non-finite", "out-of-range"],
)
def test_table_keeps_its_entry_messages(points, message):
    with pytest.raises(TableFormatError, match=f"^{re.escape(message)}$"):
        from_table(points)


@pytest.mark.parametrize("bad", [None, math.nan, math.inf], ids=["none", "nan", "inf"])
def test_non_finite_weights_raise(bad):
    # the float cast reads None as NaN, and a NaN weight makes every pattern value NaN
    with pytest.raises(DomainError, match="^excitation weights must be finite$"):
        Weights(0.5, (1.0, bad))


FRACTIONAL_COUNTS = {
    "RingGeometry": lambda: RingGeometry(1.0, (0.5,), (6.5,)),
    "build_sample_set": lambda: build_sample_set(GEOM, TARGET, total_count=20.5),
    "evaluate_cut": lambda: evaluate_cut(GEOM, WEIGHTS, TARGET, grid_points=801.7),
    "evaluate_surface-theta": lambda: evaluate_surface(GEOM, WEIGHTS, theta_points=2.5),
    "evaluate_surface-phi": lambda: evaluate_surface(GEOM, WEIGHTS, phi_points=72.5),
    "equi_ripple": lambda: equi_ripple(-20.0, 2.5),
    "difference": lambda: difference(-20.0, 2.5),
    "uniform_half_wavelength_geometry": lambda: uniform_half_wavelength_geometry(2.5),
}


@pytest.mark.parametrize("site", FRACTIONAL_COUNTS)
def test_fractional_count_raises(site):
    with pytest.raises(DomainError, match="must be a whole number in the float range"):
        FRACTIONAL_COUNTS[site]()


def test_whole_float_counts_read_as_int():
    assert build_sample_set(GEOM, TARGET, total_count=20.0).total_count == 20
    assert uniform_half_wavelength_geometry(2.0) == GEOM
    assert evaluate_cut(GEOM, WEIGHTS, TARGET, grid_points=801.0).u_grid.size == 801
    surface = evaluate_surface(GEOM, WEIGHTS, theta_points=3.0, phi_points=4.0)
    assert (surface.theta.size, surface.phi.size) == (3, 4)
    for make in (equi_ripple, difference):
        rings = make(-20.0, 3.0).params["aperture_rings"]
        assert rings == 3 and type(rings) is int
