"""The torus skew product T(x,y) = (x+alpha, y+g(x)) and its statistics.

Orbit values T^n(x,y) = (x + n alpha, y + S_n(g)(x)) are computed from exact
fractional parts (per index) or double-double reduction (vectorized over
primes), never by stepwise iteration, so rounding does not accumulate over
1e7 steps.  On top of the orbits sit the equidistribution statistics: prime
log-weighted averages, reduced-residue averages, Weyl sums, a star-discrepancy
bound of Erdos-Turan type, and small-set measure estimates for trigonometric
polynomials.
"""

import math
from dataclasses import dataclass

import numpy as np

from skewlab.cocycle import TrigPoly, birkhoff_closed, birkhoff_prefix
from skewlab.dd import dd_from_fraction, frac01_int_mult
from skewlab.diophantine import ContinuedFraction
from skewlab.errors import InvalidInputError, RangeError
from skewlab.primes import default_source

TWO_PI = 2.0 * math.pi


def e(t):
    """e(t) = exp(2 pi i t), elementwise."""
    t = np.asarray(t, dtype=np.float64)
    return np.cos(TWO_PI * t) + 1j * np.sin(TWO_PI * t)


@dataclass(frozen=True)
class Observable:
    """The character e_{b,c}(x, y) = e(b x + c y)."""

    b: int
    c: int

    def eval(self, x, y):
        return e(self.b * np.asarray(x) + self.c * np.asarray(y))


class SkewProduct:
    """T(x, y) = (x + alpha mod 1, y + g(x) mod 1) over the rotation alpha."""

    def __init__(self, cf: ContinuedFraction, g):
        self.cf = cf
        self.g = g

    def iterate(self, n: int, x: float, y: float):
        """T^n(x, y) via the closed Birkhoff sum; exact rotation part."""
        if n < 0:
            raise InvalidInputError("n must be >= 0")
        xn = (x + float(self.cf.frac01(n))) % 1.0
        return xn, (y + birkhoff_closed(self.g, self.cf, n, x)) % 1.0

    def iterate_stepwise(self, n: int, x: float, y: float):
        """Step-by-step iteration oracle (rounding accumulates; testing only)."""
        alpha = float(self.cf.value)
        for _ in range(n):
            y = (y + float(self.g(x))) % 1.0
            x = (x + alpha) % 1.0
        return x, y


def _prime_orbit_phases(T: SkewProduct, primes: np.ndarray, x: float, y: float):
    """(x_p, y_p) arrays for p in primes, via per-frequency dd reduction."""
    cf, g = T.cf, T.g
    hi, lo = cf.value_dd()
    xs = frac01_int_mult(primes, hi, lo) + (x % 1.0)
    xs -= np.floor(xs)
    ys = np.full(primes.shape, float(y))
    for m, a in zip(g.freqs, g.amps):
        m = int(m)
        v = float(cf.frac_signed(m))
        denom = e(v) - 1.0
        m_hi, m_lo = dd_from_fraction(cf.frac01(m))
        phases = frac01_int_mult(primes, m_hi, m_lo)
        ratio = (e(phases) - 1.0) / denom
        term = (a * np.exp(2j * math.pi * m * x)) * ratio
        ys += 2.0 * term.real
    return xs, ys


def prime_weighted_average(T: SkewProduct, f: Observable, N: int, x: float, y: float,
                           primes=None):
    """(1/N) sum_{p <= N} e_{b,c}(T^p(x,y)) log p, plus theta(N)/N.

    Returns (average, theta_ratio).
    """
    if N < 1:
        raise InvalidInputError(f"need N >= 1, got N={N}")
    src = primes if primes is not None else default_source()
    if N > src.limit:
        raise RangeError(f"N = {N} beyond prime source limit {src.limit}")
    ps = src.primes_in(2, N)
    logp = np.log(ps.astype(np.float64))
    theta_ratio = float(np.sum(logp)) / N
    if f.b == 0 and f.c == 0:
        return complex(theta_ratio), theta_ratio
    xs, ys = _prime_orbit_phases(T, ps, x, y)
    vals = e(f.b * xs + f.c * ys) * logp
    return complex(np.sum(vals) / N), theta_ratio


def reduced_residue_average(T: SkewProduct, f: Observable, z: int, d: int,
                            x: float, y: float) -> complex:
    """(d / (z phi(d))) sum_{k <= z, (k,d) = 1} e_{b,c}(T^k(x,y))."""
    if d < 1 or z % d != 0:
        raise InvalidInputError(f"d = {d} must divide z = {z}")
    from skewlab.primes import euler_phi

    ks = np.arange(1, z + 1, dtype=np.int64)
    mask = np.gcd(ks, d) == 1
    hi, lo = T.cf.value_dd()
    xs = frac01_int_mult(ks[mask], hi, lo) + (x % 1.0)
    xs -= np.floor(xs)
    prefix = birkhoff_prefix(T.g, T.cf, z, x)
    ys = y + prefix[1 : z + 1][mask]
    total = np.sum(e(f.b * xs + f.c * ys))
    return complex(total * d / (z * euler_phi(d)))


def weyl_sum(points, freq) -> complex:
    """(1/N) sum e(<freq, point>) over circle or torus samples.

    points: 1-d array (circle, integer freq) or (N, 2) array with an
    Observable carrying (b, c).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        k = int(freq)
        return complex(np.mean(e(k * pts)))
    if pts.ndim == 2 and pts.shape[1] == 2:
        b, c = (freq.b, freq.c) if isinstance(freq, Observable) else freq
        return complex(np.mean(e(b * pts[:, 0] + c * pts[:, 1])))
    raise InvalidInputError("points must be 1-d (circle) or (N,2) (torus)")


def _nonempty(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise InvalidInputError("the point set is empty")
    return pts


def exact_star_discrepancy(points) -> float:
    """D*_N of circle samples from the sorted-points formula."""
    xs = np.sort(_nonempty(points) % 1.0)
    n = len(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - xs), np.max(xs - (i - 1) / n)))


def star_discrepancy_bound(points, K: int) -> float:
    """Erdos-Turan style bound: 1/K + 3 sum_{k <= K} |W_k| / k.

    The constants C1 = 1, C2 = 3 are the documented choice; the bound always
    dominates the exact star discrepancy.
    """
    if K < 1:
        raise InvalidInputError("K must be >= 1")
    pts = _nonempty(points)
    total = 1.0 / K
    for k in range(1, K + 1):
        total += 3.0 * abs(weyl_sum(pts, k)) / k
    return total


def nazarov_small_set(p: TrigPoly, eps: float, grid: int = 1 << 12) -> float:
    """Grid estimate of Leb{x : |p(x)| <= eps}."""
    if grid < (1 << 10):
        raise InvalidInputError("grid must be >= 2^10")
    xs = np.arange(grid) / grid
    return float(np.mean(np.abs(p.eval(xs)) <= eps))


def nazarov_translate_count(g_block: TrigPoly, cf: ContinuedFraction, q_n: int,
                            eps_exponent: float, x: float) -> int:
    """|{u <= q_n : |g(x + u alpha)| <= q_n^(-eps)}| along the rotation orbit."""
    hi, lo = cf.value_dd()
    us = np.arange(1, q_n + 1, dtype=np.int64)
    angles = frac01_int_mult(us, hi, lo) + (x % 1.0)
    angles -= np.floor(angles)
    thresh = float(q_n) ** (-eps_exponent)
    return int(np.count_nonzero(np.abs(g_block.eval(angles)) <= thresh))
