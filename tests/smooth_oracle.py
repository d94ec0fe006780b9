"""Reference smoother for the preprocess tests.

smooth_with_lambda factors the dual banded matrix once and solves against
it twice (the solve and one refinement pass). This module keeps the form it
replaced: two solveh_banded calls, each of which factors the same matrix
again. The library function must reproduce it byte for byte, raise the
same ValueError on non-finite input, and fall back to the same quadratic
when the matrix is not positive definite.
"""

import numpy as np
from scipy.linalg import solveh_banded

from exogait.preprocess import _D3_AUTOCORR, _D3_STENCIL, _quadratic_limit


def oracle_smooth_with_lambda(samples, rate, lam):
    """Same arguments and result as smooth_with_lambda."""
    y = np.asarray(samples, dtype=float)
    n = y.size
    h = 1.0 / rate
    c = lam * h**-5
    if n < 4 or c == 0.0:
        return y.copy()
    d3y = np.diff(y, n=3)
    m = n - 3
    ab = np.zeros((4, m))
    ab[3] = 1.0 + c * 20.0
    ab[2, 1:] = c * -15.0
    ab[1, 2:] = c * 6.0
    ab[0, 3:] = c * -1.0
    try:
        z = solveh_banded(ab, d3y, lower=False)
        residual = d3y - (z + c * np.convolve(z, _D3_AUTOCORR)[3:3 + m])
        z = z + solveh_banded(ab, residual, lower=False)
    except np.linalg.LinAlgError:
        return _quadratic_limit(y)
    return y - c * np.convolve(z, _D3_STENCIL, mode="full")
