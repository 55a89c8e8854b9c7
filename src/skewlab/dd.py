"""Double-double helpers for exact-enough fractional parts.

Angles like frac(n*alpha) with n up to ~1e10 need alpha carried beyond double
precision before the mod-1 cancellation; a (hi, lo) double-double pair gives
~32 significant digits, which keeps the post-reduction angle good to full
double accuracy.  Dekker's two-sum and two-prod steps are elementwise, so
every function here runs on whole numpy arrays.
"""

from fractions import Fraction

import numpy as np

from skewlab.errors import RangeError

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def frac01_int_mult(n, a_hi, a_lo):
    """frac(n * a) in [0,1) as float64 for integer array n, dd scalar a.

    n must be exactly representable in float64: |n| < 2**53, else RangeError.
    """
    if n.size and (n.min() <= -2**53 or n.max() >= 2**53):
        raise RangeError(f"n spans [{n.min()}, {n.max()}], outside (-2**53, 2**53)")
    # names are rebound so that each step frees the arrays it consumed
    nf = n.astype(np.float64)
    hi, lo = _two_prod(nf, a_hi)
    lo = lo + nf * a_lo
    hi, lo = _two_sum(hi, lo)
    hi, lo = _two_sum(hi - np.floor(hi), lo)  # the fold is exact: Sterbenz
    out = (hi - np.floor(hi)) + lo
    return out - np.floor(out)


def frac01_poly_dd(x, coeff_hi, coeff_lo):
    """frac(sum_i c_i x**i) via Horner in double-double, i from len(c) down to 1.

    x: integer-valued float64 array (exact), coefficients as dd pairs indexed
    by power i = 1..k (index 0 unused).  Returns values in [0,1).
    """
    k = coeff_hi.shape[0] - 1
    acc_hi = coeff_hi[k]
    acc_lo = coeff_lo[k]
    for i in range(k - 1, 0, -1):
        p_hi, e = _two_prod(acc_hi, x)
        p_lo = e + acc_lo * x
        # fold to [0,1) so the magnitude never outgrows dd resolution
        s_hi, s_lo = _two_sum(p_hi, p_lo)
        r = s_hi - np.floor(s_hi)
        acc_hi, acc_lo = _two_sum(r, s_lo)
        acc_hi2, acc_lo2 = _two_sum(acc_hi, coeff_hi[i])
        acc_hi, acc_lo = acc_hi2, acc_lo2 + acc_lo + coeff_lo[i]
    p_hi, e = _two_prod(acc_hi, x)
    p_lo = e + acc_lo * x
    s_hi, s_lo = _two_sum(p_hi, p_lo)
    r = s_hi - np.floor(s_hi)
    v = r + s_lo
    return v - np.floor(v)


def dd_from_fraction(x: Fraction):
    """Split an exact rational into a double-double (hi, lo) pair."""
    hi = float(x)
    lo = float(x - Fraction(hi))
    return hi, lo
