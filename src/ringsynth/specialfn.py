"""Special function: Bessel J0 of the first kind, order zero.

:func:`bessel_j0_grid` evaluates J0 element by element over any array.
:func:`j0_hankel_columns` evaluates it over the part of a rank-one argument
block x[m, n] = k r_n u_m that lies in the Hankel branch, where the
modulus-phase polynomials in 1/x^2 factor over rows and columns and become
two small matrix products.  Nothing here keeps state, so the functions are
safe to call from any number of threads or processes; only
:func:`j0_hankel_columns` writes into its argument.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError

# Switchover between the two branches.  Each branch is fitted on its own side
# of this point (the series on x < 8, the Hankel form on x >= 8), and both
# agree with 30-digit references to ~1e-15 across it.
_SERIES_CUTOFF = 8.0

# Elements per block in bessel_j0_grid: a block and its handful of
# same-sized temporaries stay in cache.
_BLOCK = 32768

# Every table below is a truncated Chebyshev expansion on t in [-1, 1],
# computed in 40-digit mpmath from 48 first-kind Chebyshev nodes, converted
# to powers of its variable and rounded to double (highest power first, for
# _polevl).
#
# Series branch, x < 8: J0(x) = 1 - x^2 r(t) with t = x^2/32 - 1 and
# r = (1 - J0)/x^2, degree 14.  The form keeps J0(0) == 1 exactly.
_SERIES_R = (
    4.0131470856349116e-13,
    -1.0958916857546475e-11,
    2.582648266027715e-10,
    -5.244478860348188e-09,
    9.017421400374679e-08,
    -1.2924617003272932e-06,
    1.5153271721373389e-05,
    -0.0001419682401103334,
    0.0010317406967228677,
    -0.005593892214464652,
    0.021452268647181808,
    -0.05390162680792268,
    0.07915440204760084,
    -0.05888973695112636,
    0.02981782297313082,
)
# Hankel branch, x >= 8, in modulus-phase form (Abramowitz and Stegun
# 9.2.28-31): with J0 = M0 cos(theta0) and s = 1/x^2,
# J0(x) = m(s) cos(x - pi/4 + g(s)/x) / sqrt(x), where
# m = sqrt(x) M0(x) (the sqrt(2/pi) prefactor folded in) and
# g = x (theta0(x) - x + pi/4), each of degree 10.  Fitted in t = 128 s - 1
# and converted to powers of s in 40-digit mpmath; at x = 8 the conditioning
# sum |d_j s^j| / |sum d_j s^j| is 1.00 for m and 1.02 for g.
_HANKEL_M = (
    319525834.1203556,
    -34324069.58082214,
    1798535.770442178,
    -66060.4923279479,
    2192.5940691121946,
    -84.48106308612589,
    4.664185950153954,
    -0.4331246621271326,
    0.08259351491889513,
    -0.04986778504866381,
    0.7978845608028653,
)
_HANKEL_G = (
    -2894772901.698214,
    304907009.15432936,
    -15453316.014426202,
    535181.0191525114,
    -16043.246395508975,
    527.5658373878623,
    -23.45119329120193,
    1.638023084370307,
    -0.20957027239141818,
    0.06510416665179003,
    -0.12499999999999908,
)
# the same tables lowest power first, as (11, 1) columns for j0_hankel_columns
_HANKEL_TERMS = len(_HANKEL_M)
_HANKEL_COLUMNS = np.array([_HANKEL_M[::-1], _HANKEL_G[::-1]])[:, :, None]
_PIO4 = 7.853981633974483e-1


def bessel_j0_grid(x: ArrayLike) -> NDArray[np.float64]:
    """Bessel J0 over an array of finite values, as a new array of the input's shape.

    Evaluates on |x|, so the even symmetry J0(x) == J0(-x) holds exactly:
    below |x| = 8 as 1 - x^2 r, with r a degree-14 Chebyshev fit in x^2, and
    above it in the modulus-phase Hankel form, whose two degree-10 tables are
    polynomials in 1/x^2 and which costs one cosine.
    Absolute error against 30-digit references stays below 1e-14 (in
    practice ~3e-15) for |x| <= 2000; at large |x| it is set by rounding the
    cosine's argument, about ulp(x)/sqrt(x).

    The argument is walked in blocks of ``_BLOCK`` elements, and each block's
    Horner steps run in place, so the temporaries stay cache-sized whatever
    the grid; beyond the output, working memory is a few blocks.  Every
    element sees the same operations in the same order as in an unblocked
    evaluation, so the result does not depend on the blocking.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    values = np.empty(flat.size)
    for lo in range(0, flat.size, _BLOCK):
        ax = np.abs(flat[lo : lo + _BLOCK])
        if not np.isfinite(ax).all():
            raise DomainError("bessel_j0_grid requires finite arguments")
        dest = values[lo : lo + _BLOCK]
        small = ax < _SERIES_CUTOFF
        big = ~small
        near, far = ax[small], ax[big]
        dest[small] = _j0_series(near, np.empty_like(near))
        dest[big] = _j0_hankel(far, np.empty_like(far))
    return values.reshape(x.shape)


def _polevl(
    z: NDArray[np.float64], coef: tuple[float, ...], out: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Horner evaluation of ``coef`` (highest power first) at z, into ``out``."""
    np.multiply(z, coef[0], out=out)
    np.add(out, coef[1], out=out)
    for c in coef[2:]:
        np.multiply(out, z, out=out)
        np.add(out, c, out=out)
    return out


def _j0_series(ax: NDArray[np.float64], out: NDArray[np.float64]) -> NDArray[np.float64]:
    """J0 at 0 <= ax < 8 as 1 - x^2 r(t), written into ``out``."""
    xx = np.multiply(ax, ax)
    t = np.multiply(xx, 1.0 / 32.0)
    np.subtract(t, 1.0, out=t)
    np.multiply(_polevl(t, _SERIES_R, out), xx, out=out)
    return np.subtract(1.0, out, out=out)


def _j0_hankel(ax: NDArray[np.float64], out: NDArray[np.float64]) -> NDArray[np.float64]:
    """J0 at ax >= 8 in modulus-phase form, written into ``out``; the tables run in s = 1/x^2."""
    s = np.divide(1.0, ax)
    np.multiply(s, s, out=s)  # squaring 1/x cannot overflow
    # the phase is x + (g/x - pi/4): the small part first, one rounding at x
    phase = _polevl(s, _HANKEL_G, np.empty_like(ax))
    np.divide(phase, ax, out=phase)
    np.subtract(phase, _PIO4, out=phase)
    np.add(phase, ax, out=phase)
    _polevl(s, _HANKEL_M, out)
    np.multiply(out, np.cos(phase, out=phase), out=out)
    return np.divide(out, np.sqrt(ax, out=s), out=out)


def _powers(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Rows v^0, v^1, ..., v^10 of an (11, len(v)) array, by repeated multiplication.

    This is ``np.vander(v, 11, increasing=True).T``, which accumulates along
    each short row and so takes 2-5x longer once v has hundreds of entries.
    """
    out = np.empty((_HANKEL_TERMS, v.size))
    out[0] = 1.0
    for j in range(1, _HANKEL_TERMS):
        np.multiply(out[j - 1], v, out=out[j])
    return out


def j0_hankel_columns(u: NDArray[np.float64], x: NDArray[np.float64]) -> int:
    """J0 in place over the columns of a rank-one panel that lie wholly in the Hankel branch.

    ``x`` is a writable (rows, cols) panel of arguments x[m, n] = k r_n u_m,
    ``u`` its 1-D row abscissas, and 0 <= r_n ascends along the columns, so
    |x| grows along each row and, with |u|, down each column.  The columns
    whose smallest |x|, in the row of min |u|, is at least 8 form a suffix.
    J0 is written over that suffix and the index of its first column is
    returned; the columns before it are left as they are, for
    :func:`bessel_j0_grid`.  A panel holding u = 0 has no suffix.

    With s = 1/x^2 = (u_min/u_m)^2 (1/x_min,n)^2, x_min,n being column n's
    smallest |x|, the amplitude m(s)/sqrt(x) and the phase term g(s)/x are
    sums of 11 separable terms, each one (rows x 11) @ (11 x cols) product;
    what is left per element is the phase sum, one cosine and one multiply.
    The tables ride on the row factors, and every power is of a ratio in
    [0, 1], so none overflows.  The result agrees with :func:`bessel_j0_grid` to about 1e-15, apart from
    rare one-ulp moves of the cosine's argument (J0'(x) ulp(x), below
    ulp(x)/sqrt(x)); a non-finite argument in the suffix raises
    :class:`DomainError`.
    """
    au = np.abs(u)
    low = int(np.argmin(au))
    if au[low] == 0.0:
        return x.shape[1]
    x_min = np.abs(x[low])
    first = int(np.searchsorted(x_min, _SERIES_CUTOFF))
    if first == x.shape[1]:
        return first
    dest = x[:, first:]
    if not np.isfinite(dest[int(np.argmax(au))]).all():
        raise DomainError("J0 requires finite arguments")
    ratio = au[low] / au
    inv = 1.0 / x_min[first:]
    rows, cols = _powers(ratio * ratio), _powers(inv * inv)
    m_col, g_col = _HANKEL_COLUMNS
    amp = (rows * np.sqrt(ratio) * m_col).T @ (cols * np.sqrt(inv))
    phase = (rows * ratio * g_col).T @ (cols * inv)
    np.subtract(phase, _PIO4, out=phase)
    np.add(phase, np.abs(dest, out=dest), out=phase)
    np.multiply(amp, np.cos(phase, out=phase), out=dest)
    return first
