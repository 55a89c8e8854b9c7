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
from skewlab.primes import default_source, euler_phi, segment_windows

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


def _rotate(ns: np.ndarray, hi: float, lo: float, x: float) -> np.ndarray:
    """frac(n alpha + x) in [0, 1) for the integer array ns, alpha = hi + lo (dd)."""
    xs = frac01_int_mult(ns, hi, lo) + (x % 1.0)
    xs -= np.floor(xs)
    return xs


def _fiber_terms(T: SkewProduct, x: float):
    """(m_hi, m_lo, a_m e(m x), e(m alpha) - 1) per frequency m of g, m alpha as a dd pair.

    S_n(g)(x) = sum_m 2 Re a_m e(m x) (e(n m alpha) - 1) / (e(m alpha) - 1).
    """
    cf = T.cf
    terms = []
    for m, a in zip(T.g.freqs, T.g.amps):
        m = int(m)
        denom = e(float(cf.frac_signed(m))) - 1.0
        terms.append((*dd_from_fraction(cf.frac01(m)), a * np.exp(2j * math.pi * m * x), denom))
    return terms


def _prime_orbit_phases(T: SkewProduct, terms, primes: np.ndarray, x: float, y: float):
    """(x_p, y_p) arrays for p in primes, via per-frequency dd reduction (terms: _fiber_terms)."""
    xs = _rotate(primes, *T.cf.value_dd(), x)
    ys = np.full(primes.shape, float(y))
    for m_hi, m_lo, scale, denom in terms:
        ys += 2.0 * (scale * ((e(frac01_int_mult(primes, m_hi, m_lo)) - 1.0) / denom)).real
    return xs, ys


def prime_weighted_averages(T: SkewProduct, observables, Ns, x: float, y: float,
                            primes=None) -> dict:
    """{(f, N): (average, theta_ratio)} for every observable f and every N, in one pass.

    average = (1/N) sum_{p <= N} e_{b,c}(T^p(x,y)) log p and theta_ratio =
    theta(N)/N.  The primes up to max(Ns) are walked once, window by window
    (primes.segment_windows), so memory is O(SEGMENT_SIZE) whatever N is.
    Each window sieves once, computes the orbit phases once for all
    observables, and adds one np.sum per observable to a running total in
    window order; a snapshot at N adds the sum over the window's primes <= N.
    The reduction order is therefore fixed by N alone: a value never depends
    on which other observables or Ns were requested.
    """
    if any(N < 1 for N in Ns):
        raise InvalidInputError(f"need N >= 1, got N={min(Ns)}")
    src = primes if primes is not None else default_source()
    if Ns and max(Ns) > src.limit:
        raise RangeError(f"N = {max(Ns)} beyond prime source limit {src.limit}")
    live = [f for f in dict.fromkeys(observables) if (f.b, f.c) != (0, 0)]
    terms = _fiber_terms(T, x) if live else []
    theta = {N: 0.0 for N in Ns}  # theta(N) for N < 2: no prime <= N
    sums = {(f, N): 0j for f in live for N in Ns}
    theta_run, runs = 0.0, dict.fromkeys(live, 0j)
    for lo, hi in segment_windows(int(max(Ns, default=0))):
        ps = src.primes_in(lo, hi)
        logp = np.log(ps.astype(np.float64))
        here = {N: int(np.searchsorted(ps, N, side="right")) for N in Ns if lo <= N <= hi}
        for N, k in here.items():
            theta[N] = theta_run + float(np.sum(logp[:k]))
        theta_run += float(np.sum(logp))
        if live:
            xs, ys = _prime_orbit_phases(T, terms, ps, x, y)
        for f in live:
            vals = e(f.b * xs + f.c * ys) * logp
            for N, k in here.items():
                sums[f, N] = runs[f] + np.sum(vals[:k])
            runs[f] += np.sum(vals)
    out = {}
    for f in observables:
        for N in Ns:
            ratio = theta[N] / N
            avg = complex(ratio) if (f.b, f.c) == (0, 0) else complex(sums[f, N] / N)
            out[f, N] = (avg, ratio)
    return out


def prime_weighted_average(T: SkewProduct, f: Observable, N: int, x: float, y: float,
                           primes=None):
    """(1/N) sum_{p <= N} e_{b,c}(T^p(x,y)) log p, plus theta(N)/N.

    Returns (average, theta_ratio).  One streamed pass of
    prime_weighted_averages: memory O(SEGMENT_SIZE), sums blocked by window
    in a fixed order.
    """
    return prime_weighted_averages(T, (f,), (N,), x, y, primes)[f, N]


def reduced_residue_average(T: SkewProduct, f: Observable, z: int, d: int,
                            x: float, y: float) -> complex:
    """(d / (z phi(d))) sum_{k <= z, (k,d) = 1} e_{b,c}(T^k(x,y))."""
    if d < 1 or z % d != 0:
        raise InvalidInputError(f"d = {d} must divide z = {z}")
    ks = np.arange(1, z + 1, dtype=np.int64)
    mask = np.gcd(ks, d) == 1
    xs = _rotate(ks[mask], *T.cf.value_dd(), x)
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
    angles = _rotate(np.arange(1, q_n + 1, dtype=np.int64), *cf.value_dd(), x)
    thresh = float(q_n) ** (-eps_exponent)
    return int(np.count_nonzero(np.abs(g_block.eval(angles)) <= thresh))
