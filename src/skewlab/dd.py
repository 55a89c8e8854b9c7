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

floor_frac_dd takes an exact rational rho and returns floor(w rho) and
frac(w rho) as a dd pair with a stated error bound; dd_div_int and
round_certified carry that bound through one division and one final rounding
and say, per element, whether the rounded double is certified to be float()
of the exact rational.  mulmod reduces products mod m < 2**43 in int64.
Callers recompute the elements that are not certified in exact integers.
e(t) = exp(2 pi i t) maps the reduced angles to the orbit, character and phase sums:
a table of the 4096th roots of unity and a degree-4 polynomial for the angle left
over, within 2**-52 per component whatever the size of t, with no call to cos or sin.
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


MULMOD_LIMIT = 2**43  # mulmod's moduli: m * 2**20 stays below 2**63
_MULMOD_BITS = 20
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


def floor_frac_dd(w, rho: Fraction):
    """floor(w rho) and frac(w rho) for an int64 array w and an exact rational rho in [-1, 1].

    Returns (k, f_hi, f_lo, err): k = floor(w rho) as int64, and f_hi + f_lo, with
    |f_lo| <= ulp(f_hi)/2, within err of frac(w rho).  w rho is Dekker's product of w
    with rho_hi plus w rho_lo, (rho_hi, rho_lo) from dd_from_fraction; the error counts
    the split error |w rho| 2**-106, the rounding of w rho_lo and of the two low-word
    sums, together below err = (1 + |w rho|) 2**-103.  err is inf where k is not
    certain: |w| >= 2**53, or f_hi + f_lo within err of 0 or of 1.
    """
    if not -1 <= rho <= 1:
        raise RangeError(f"rho = {rho} outside [-1, 1]")
    rho_hi, rho_lo = dd_from_fraction(rho)
    wide = (w <= -2**53) | (w >= 2**53)  # beyond float64's exact integers
    wf = np.where(wide, 0, w).astype(np.float64)
    p_hi, p_lo = _two_prod(wf, rho_hi)
    k = np.rint(p_hi)
    hi, lo = _two_sum(p_hi - k, p_lo)  # p_hi - rint(p_hi) is exact: Sterbenz
    hi, lo = _two_sum(hi, lo + wf * rho_lo)  # |hi| <= 2
    m = np.floor(hi)
    f_hi, e = _two_sum(hi, -m)
    f_hi, f_lo = _two_sum(f_hi, e + lo)
    err = (1.0 + np.abs(wf) * abs(rho_hi)) * 2.0**-103
    margin = 2.0 * err + np.abs(f_lo)
    err[wide | (f_hi <= margin) | (1.0 - f_hi <= margin)] = np.inf
    return (k + m).astype(np.int64), f_hi, f_lo, err


def dd_div_int(hi, lo, err, d: int):
    """(hi + lo) / d for a dd array within err of some value v and an integer 0 < d < 2**53.

    Returns (q_hi, q_lo, q_err): q_hi = fl(hi / d), q_lo from the exact residual
    hi - q_hi d (Dekker's product), and q_hi + q_lo within q_err of v / d; the
    three roundings of the residual add less than 2**-103 |hi| / d to err / d.
    """
    df = float(d)
    q_hi = hi / df
    p, e = _two_prod(q_hi, df)
    q_lo = (((hi - p) - e) + lo) / df  # hi - p is exact: Sterbenz
    return q_hi, q_lo, (err + 2.0**-102 * np.abs(hi)) / df


def round_certified(hi, lo, err):
    """fl(hi + lo), and True where it is certified to be the correctly rounded value of
    every real within err of hi + lo: that interval lies strictly inside the rounding
    interval of the returned double, so ties are never certified.

    0.5 up - rest is exact when rest >= up/4 (Sterbenz) and otherwise rounds by less
    than a part in 2**53, and likewise on the lower side; so err must carry that much
    slack over the true bound, as every err in this module does (a factor above 1.5).
    """
    out, rest = _two_sum(hi, lo)  # out + rest = hi + lo exactly
    up = np.nextafter(out, np.inf) - out
    down = out - np.nextafter(out, -np.inf)
    return out, (err < 0.5 * up - rest) & (err < 0.5 * down + rest)


def mulmod(a, b: int, m: int):
    """a * b mod m for an int64 array a in [0, m), an integer b >= 0 and m < 2**43.

    Horner over the 20-bit digits of b: every partial product is below 2**63.
    A negative b raises RangeError: its digits would never run out.
    """
    if not 0 < m < MULMOD_LIMIT:
        raise RangeError(f"modulus {m} outside (0, 2**43)")
    if b < 0:
        raise RangeError(f"multiplier {b} < 0")
    digits = []
    while b:
        digits.append(b & ((1 << _MULMOD_BITS) - 1))
        b >>= _MULMOD_BITS
    out = np.zeros_like(a)
    for digit in reversed(digits):
        out = ((out << _MULMOD_BITS) % m + a * digit % m) % m
    return out


def frac01_poly_dd(x, coeff):
    """frac(sum_i c_i x**i) via Horner in double-double, i from len(c) down to 1.

    x: integer-valued float64 array (exact), float64 coefficients indexed by
    power i = 1..k (index 0 unused).  Returns values in [0,1).
    """
    k = coeff.shape[0] - 1
    acc_hi = coeff[k]
    acc_lo = 0.0
    for i in range(k - 1, 0, -1):
        p_hi, e = _two_prod(acc_hi, x)
        p_lo = e + acc_lo * x
        # fold to [0,1) so the magnitude never outgrows dd resolution
        s_hi, s_lo = _two_sum(p_hi, p_lo)
        r = s_hi - np.floor(s_hi)
        acc_hi, acc_lo = _two_sum(r, s_lo)
        acc_hi2, acc_lo2 = _two_sum(acc_hi, coeff[i])
        acc_hi, acc_lo = acc_hi2, acc_lo2 + acc_lo
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


_ROOT_COUNT = 4096  # e(t) = e(j / 4096) e(a) with |a| <= pi/4096
_ROOT_STEP = 2.0 * math.pi / _ROOT_COUNT


def _root_table():
    """e(j / 4096) for j in [0, 4096): cos and sin in long double for the 513 angles in
    [0, pi/4], rounded once to float64, the rest by the exact octant and quadrant symmetries."""
    k = np.arange(_ROOT_COUNT // 8 + 1, dtype=np.longdouble)
    ang = k * (np.arctan(np.longdouble(1)) / (_ROOT_COUNT // 8))  # 2 pi k / 4096
    c, s = np.cos(ang).astype(np.float64), np.sin(ang).astype(np.float64)
    qc = np.concatenate([c, s[-2:0:-1]])  # first quadrant: e(1/4 - u) = sin + i cos at u
    qs = np.concatenate([s, c[-2:0:-1]])
    roots = np.empty(_ROOT_COUNT, dtype=np.complex128)
    roots.real = np.concatenate([qc, -qs, -qc, qs]) + 0.0  # + 0.0: no -0.0 at the axes
    roots.imag = np.concatenate([qs, qc, -qs, -qc]) + 0.0
    return roots


_ROOTS = _root_table()


def e(t):
    """e(t) = exp(2 pi i t), elementwise, from a table of e(j / 4096) and a short polynomial.

    r = t - rint(t) and 4096 r = n + delta, |delta| <= 1/2, are exact for every finite
    double, so e(t) = e(j / 4096) e(a) with j = n mod 4096 and a = 2 pi delta / 4096.
    For |a| <= pi/4096, cos a - 1 = a**2 (a**2/24 - 1/2) and sin a = a (1 - a**2/6) drop
    terms below 3e-22 and 2.2e-18.  root + root (cos a - 1 + i sin a) then carries the
    table's rounding and that of the last sum, 2**-54 each, and the rest adds below 3e-18:
    each component is within 2**-52 of e(t) for the double t, however large |t| is
    (Tang, ACM TOMS 15, 1989).  No element calls libm.  e(k/4) is exact; a non-finite
    t gives nan.  Four float64 work arrays besides the output; the index array is one.
    """
    x = np.asarray(t, dtype=np.float64)
    shape, x = x.shape, x.ravel()
    a = np.rint(x)
    np.subtract(x, a, out=a)  # r, exact
    a *= _ROOT_COUNT
    n = np.rint(a)
    a -= n  # delta, exact
    with np.errstate(invalid="ignore"):  # nan's index is masked like any other
        j = n.astype(np.int64)
    j &= _ROOT_COUNT - 1
    out = np.take(_ROOTS, j)
    u = j.view(np.float64)
    a *= _ROOT_STEP
    np.multiply(a, a, out=u)
    np.multiply(u, -1 / 6, out=n)
    n += 1.0
    a *= n  # sin a
    np.multiply(u, 1 / 24, out=n)
    n -= 0.5
    u *= n  # cos a - 1
    re, im = out.real, out.imag
    p = re * u
    np.multiply(im, a, out=n)
    p -= n  # Re(root (cos a - 1 + i sin a))
    np.multiply(im, u, out=n)
    np.multiply(re, a, out=u)
    n += u  # Im(root (cos a - 1 + i sin a))
    re += p
    im += n
    out = out.reshape(shape)
    return out if out.ndim else out[()]
