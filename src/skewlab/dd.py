"""Exact-enough fractional parts: double-double helpers and the offset split.

Angles like frac(n*alpha) with n up to ~1e10 need alpha carried beyond double
precision before the mod-1 cancellation; a (hi, lo) double-double pair gives
~32 significant digits, which keeps the post-reduction angle good to full
double accuracy.  Dekker's two-sum and two-prod steps are elementwise, so
every function here runs on whole numpy arrays.

frac01_int_mult reduces integer multiples by an offset split (Veltkamp
splitting where the integer factor has a known range): n = B + r with B a
multiple of 2**21 and 0 <= r < 2**21, the multiplier cut at 32 fractional
bits so that r times the cut part is exact in float64.  Dekker's products
run only on the few distinct block bases B.  These are error-free
transformations in the sense of Dekker (1971) and Ogita, Rump and Oishi,
"Accurate sum and dot product" (SIAM J. Sci. Comput., 2005).
"""

import math
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


BLOCK_BITS = 21  # n = B + r with B a multiple of 2**21 and 0 <= r < 2**21
_CUT = 2.0**32  # multipliers cut at 32 fractional bits: r * cut part < 2**53, exact


def _frac_dd(n, a_hi, a_lo):
    """(hi, lo) with hi + lo = frac(n * a) modulo 1 and -1 < hi <= 1, by Dekker's products."""
    nf = n.astype(np.float64)
    hi, lo = _two_prod(nf, a_hi)
    lo = lo + nf * a_lo
    hi, lo = _two_sum(hi, lo)
    return _two_sum(hi - np.floor(hi), lo)  # the fold is exact: Sterbenz


def frac01_int_mult(n, a_hi, a_lo):
    """frac(n * a) in [0,1) as float64 for integer array n, dd scalar a = a_hi + a_lo.

    n must be exactly representable in float64: |n| < 2**53, else RangeError.
    Offset split: n = B + r with B = (n >> 21) * 2**21 and 0 <= r < 2**21, and
    frac(a) = A + A' with A cut to 32 fractional bits, so r * A is exact and
    0 <= r * A' < 2**-11.  frac(B * a) comes from Dekker's products once per
    distinct block base B, as C + D with C on the 2**-32 grid and 0 <= D < 2**-32.
    Then frac(n * a) = frac(frac(frac(r * A) + C) + (r * A' + D)), where only
    the last sum rounds: the result is within 2**-53 + 2**-62 + |n| * 2**-106
    of the exact frac(n * a), and each element depends on its own n alone.
    """
    if n.size and (n.min() <= -2**53 or n.max() >= 2**53):
        raise RangeError(f"n spans [{n.min()}, {n.max()}], outside (-2**53, 2**53)")
    if not n.size:
        return np.zeros(n.shape)
    theta = (Fraction(a_hi) + Fraction(a_lo)) % 1
    A = math.floor(theta * 2**32) / _CUT
    A_rest = float(theta - Fraction(A))  # in [0, 2**-32)
    idx = n >> BLOCK_BITS
    lo_b, hi_b = int(idx.min()), int(idx.max())
    if hi_b - lo_b < n.size:  # dense: at most n.size bases (a prime window has two)
        bases = np.arange(lo_b, hi_b + 1, dtype=np.int64)
        idx -= lo_b
    else:  # sparse blocks: never an array as long as their span
        bases, idx = np.unique(idx, return_inverse=True)
        idx = idx.reshape(n.shape)
    c_hi, c_lo = _frac_dd(bases << BLOCK_BITS, a_hi, a_lo)
    C = np.floor(c_hi * _CUT) / _CUT
    D = (c_hi - C) + c_lo
    shift = np.where(D < 0, 1 / _CUT, 0.0)  # D >= 0 keeps the last sum >= 0
    C -= shift
    D += shift
    r = (n & ((1 << BLOCK_BITS) - 1)).astype(np.float64)
    out = r * A
    step = np.floor(out)
    out -= step
    out += C[idx]  # multiples of 2**-32 below 2 in magnitude: exact
    np.floor(out, out=step)
    out -= step
    r *= A_rest
    r += D[idx]
    out += r
    np.floor(out, out=step)
    out -= step
    return out


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
