"""The torus skew product T(x,y) = (x+alpha, y+g(x)) and its statistics.

Orbit values T^n(x,y) = (x + n alpha, y + S_n(g)(x)) are computed from exact
fractional parts (per index) or, vectorized, x_n from dd.frac01_int_mult and
y_n from per-frequency tables of e(B theta), e(i 2**11 theta), e(j theta) over
n = B + (i << 11) + j, built once per pass; never by stepwise iteration.  The prime
log-weighted and reduced-residue averages are one orbit sum with weight log p or 1,
streamed window by window in memory O(SEGMENT_SIZE): one executor worker draws (sieves)
the next window while the calling thread evaluates the current one in chunks, summed
in a fixed order, so no value depends on the threads.
Beside them: Weyl sums and an Erdos-Turan star-discrepancy bound.
"""

from dataclasses import dataclass

import numpy as np

from skewlab.cocycle import birkhoff_closed, orbit_angles
from skewlab.dd import BLOCK_BITS, dd_from_fraction, e, frac01_int_mult
from skewlab.diophantine import ContinuedFraction, frac_phase
from skewlab.errors import InvalidInputError, RangeError, ResourceError
from skewlab.primes import (coprime_mask, default_source, euler_phi, factorize, prime_windows,
                            segment_windows)

# the fiber split k = B + (i << _J_BITS) + j of _fiber_tables: B on dd's blocks of
# 2**BLOCK_BITS, their offsets cut into 2**(BLOCK_BITS - _J_BITS) values of i and 2**_J_BITS of j
_J_BITS = (BLOCK_BITS + 1) // 2
# indices per evaluated slice of a window in _orbit_sums.  Keep it above the 9,592 primes
# up to 10**5: perfbench counts 1 + len(g.freqs) frac01_int_mult calls (the pass's fiber
# tables and one orbit_angles chunk) there
CHUNK = 1 << 14
# largest index an orbit pass takes: at about 34 ns an index, 2**40 is some 10 hours
ORBIT_MAX_INDEX = 1 << 40
# star_discrepancy_bound's K (N + 256): a Weyl sum costs ~70 ns a point plus ~20 us (256 points)
DISCREPANCY_MAX_TERMS = 10**9


@dataclass(frozen=True)
class Observable:
    """The character e_{b,c}(x, y) = e(b x + c y)."""

    b: int
    c: int


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


def _fiber_terms(T: SkewProduct, x: float):
    """(m_hi, m_lo, 2 kappa_m) per frequency m of g, m alpha as a dd pair.

    S_n(g)(x) = sum_m 2 Re kappa_m (e(n m alpha) - 1), kappa_m = a_m e(m x) / (e(m alpha) - 1).
    With v = m alpha reduced to (-1/2, 1/2], e(v) - 1 = 2i sin(pi v) e(v / 2), so
    kappa_m = a_m e(m x - v / 2) / (2i Im e(v / 2)): the phase is reduced mod 1 exactly
    (diophantine.frac_phase), and the sine keeps its relative accuracy where e(v) - 1 would
    cancel.
    """
    cf = T.cf
    terms = []
    for m, a in zip(T.g.freqs, T.g.amps):
        m = int(m)
        v = cf.frac_signed(m)
        kappa = a * e(frac_phase(x, m, -v / 2)) / (2j * e(float(v / 2)).imag)
        terms.append((*dd_from_fraction(cf.frac01(m)), 2.0 * kappa))
    return terms


def _fiber_tables(terms, top: int):
    """[(2 kappa, e(B theta), e(i 2**11 theta), e(j theta))] per frequency: one pass's tables.

    terms = _fiber_terms(T, x).  k = B + (i << 11) + j with B a multiple of 2**21,
    0 <= i < 2**10 and 0 <= j < 2**11 (dd.BLOCK_BITS = 21 and _J_BITS = 11).  Per
    frequency, one frac01_int_mult and one e() on every B <= top, every i << 11 and
    every j; both are per element, so each entry is the one any subset would give.
    """
    n_i, n_j, nb = 1 << (BLOCK_BITS - _J_BITS), 1 << _J_BITS, (top >> BLOCK_BITS) + 1
    parts = np.concatenate([np.arange(nb) << BLOCK_BITS, np.arange(n_i) << _J_BITS,
                            np.arange(n_j)])
    return [(kappa2, *np.split(e(frac01_int_mult(parts, m_hi, m_lo)), [nb, nb + n_i]))
            for m_hi, m_lo, kappa2 in terms]


def _window_tables(tables, ks: np.ndarray):
    """(b0, [(K, L, Re 2 kappa)] per frequency) for the ascending, nonempty window ks.

    K = 2 kappa e(B theta) e(i 2**11 theta) over the blocks b0 to b1 of ks, flat with
    row (B >> 11) + i counted from b0, and L = e(j theta): then
    2 Re kappa e(k theta) = Re K[row] L[j] (_fiber_gather).
    """
    b0, b1 = int(ks[0]) >> BLOCK_BITS, int(ks[-1]) >> BLOCK_BITS
    return b0, [(np.outer(k2 * tb[b0 : b1 + 1], ti).ravel(), tj, k2.real)
                for k2, tb, ti, tj in tables]


def _fiber_gather(b0: int, tables, ks: np.ndarray, y: float) -> np.ndarray:
    """y_k = y + S_k(g)(x) for k in ks (inside the window of the tables), by one gather
    from each table; y_k depends on its own k alone."""
    row, col = (ks >> _J_BITS) - (b0 << (BLOCK_BITS - _J_BITS)), ks & ((1 << _J_BITS) - 1)
    ys = np.full(ks.shape, float(y))
    re, im = np.empty(ks.shape), np.empty(ks.shape)
    for K, L, kappa2_re in tables:
        a, b = K.take(row), L.take(col)
        np.multiply(a.real, b.real, out=re)
        np.multiply(a.imag, b.imag, out=im)
        re -= im
        re -= kappa2_re
        ys += re
    return ys


def _orbit_sums(T: SkewProduct, observables, Ns, x: float, y: float, windows):
    """({(f, N): sum_{k <= N} w_k e_{b,c}(T^k(x,y))}, {N: sum_{k <= N} w_k}), one pass.

    windows yields ascending (lo, hi, ks, w): the indices ks in [lo, hi], none above
    max(Ns), and their weights.  (b, c) = (0, 0) gets no entry: its sum is the weight
    total.  One executor worker draws each next window while this thread evaluates the
    current one, which it drops before it waits for that draw: at most two are alive.
    This thread builds the fiber tables once and writes each window's w_k e_{b,c} chunk
    by chunk into one buffer kept for every window; its np.sum joins a running total in
    window order, so every value depends on N and the windows alone.  Leaving the
    executor joins the worker; an exception met while drawing is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import

    top = int(max(Ns, default=0))
    if top > ORBIT_MAX_INDEX:
        raise ResourceError(f"orbit pass budget is N <= {ORBIT_MAX_INDEX} (2**40), got {top}")
    live = [f for f in dict.fromkeys(observables) if (f.b, f.c) != (0, 0)]
    tables = _fiber_tables(_fiber_terms(T, x), top) if live else []
    with_x = any(f.b for f in live)
    mass = {N: 0.0 for N in Ns}  # N below the first window: no index <= N
    sums = {(f, N): 0j for f in live for N in Ns}
    mass_run, runs = 0.0, dict.fromkeys(live, 0j)
    buf = np.empty((len(live), 0), dtype=np.complex128)
    windows = iter(windows)
    with ThreadPoolExecutor(1, thread_name_prefix="skewlab-windows") as ahead:
        drawn = ahead.submit(next, windows, None)
        while (window := drawn.result()) is not None:
            drawn = ahead.submit(next, windows, None)
            lo, hi, ks, w = window
            here = {N: int(np.searchsorted(ks, N, side="right")) for N in Ns if lo <= N <= hi}
            for N, k in here.items():
                mass[N] = mass_run + float(np.sum(w[:k]))
            mass_run += float(np.sum(w))
            n = ks.size if live else 0
            if n > buf.shape[1]:  # rounded up, so windows a few indices longer reuse it
                buf = np.empty((len(live), -(-n >> 14) << 14), dtype=np.complex128)
            if n:
                b0, window_tables = _window_tables(tables, ks)
            for a in range(0, n, CHUNK):
                c = slice(a, min(a + CHUNK, n))
                xs = orbit_angles(T.cf, ks[c], x) if with_x else 0.0
                ys = _fiber_gather(b0, window_tables, ks[c], y)
                for f, row in zip(live, buf[:, c]):
                    np.multiply(e(f.b * xs + f.c * ys), w[c], out=row)
            for f, vals in zip(live, buf[:, :n]):
                for N, k in here.items():
                    sums[f, N] = runs[f] + np.sum(vals[:k])
                runs[f] += np.sum(vals)
            del window, ks, w  # gone before the window after next is drawn
    return sums, mass


def _coprime_windows(z: int, d: int):
    """(lo, hi, k in [lo, hi] with (k, d) = 1, ones) per window of [1, z], by striding."""
    strike = [p for p, _ in factorize(d)]
    for lo, hi in segment_windows(z, start=1):
        ks = lo + np.flatnonzero(coprime_mask(lo, hi, strike))
        yield lo, hi, ks, np.ones(ks.shape)


def prime_weighted_averages(T: SkewProduct, observables, Ns, x: float, y: float,
                            primes=None) -> dict:
    """{(f, N): (average, theta_ratio)} for every observable f and every N, in one pass.

    average = (1/N) sum_{p <= N} e_{b,c}(T^p(x,y)) log p and theta_ratio =
    theta(N)/N.  The primes up to max(Ns) are walked once, window by window
    (primes.segment_windows), so memory is O(SEGMENT_SIZE) whatever N is.
    """
    if any(N < 1 for N in Ns):
        raise InvalidInputError(f"need N >= 1, got N={min(Ns)}")
    src = primes if primes is not None else default_source()
    if Ns and max(Ns) > src.limit:
        raise RangeError(f"N = {max(Ns)} beyond prime source limit {src.limit}")
    windows = prime_windows(src, int(max(Ns, default=0)))
    sums, theta = _orbit_sums(T, observables, Ns, x, y, windows)
    out = {}
    for f in observables:
        for N in Ns:
            ratio = theta[N] / N
            avg = complex(ratio) if (f.b, f.c) == (0, 0) else complex(sums[f, N] / N)
            out[f, N] = (avg, ratio)
    return out


def prime_weighted_average(T: SkewProduct, f: Observable, N: int, x: float, y: float,
                           primes=None):
    """(average, theta_ratio): (1/N) sum_{p <= N} e_{b,c}(T^p(x,y)) log p and theta(N)/N.

    One streamed pass of prime_weighted_averages.
    """
    return prime_weighted_averages(T, (f,), (N,), x, y, primes)[f, N]


def reduced_residue_average(T: SkewProduct, f: Observable, z: int, d: int,
                            x: float, y: float) -> complex:
    """(d / (z phi(d))) sum_{k <= z, (k,d) = 1} e_{b,c}(T^k(x,y)), streamed in O(SEGMENT_SIZE)."""
    if z < 1 or d < 1 or z % d != 0:
        raise InvalidInputError(f"need z >= 1 and d >= 1 dividing z, got z = {z}, d = {d}")
    sums, count = _orbit_sums(T, (f,), (z,), x, y, _coprime_windows(z, d))
    total = count[z] if (f.b, f.c) == (0, 0) else sums[f, z]
    return complex(total * d / (z * euler_phi(d)))


def weyl_sum(points, k: int) -> complex:
    """(1/N) sum_j e(k x_j) over the circle samples x_j."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1:
        raise InvalidInputError("points must be a 1-d array of circle samples")
    return complex(np.mean(e(int(k) * pts)))


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
    if K * (pts.size + 256) > DISCREPANCY_MAX_TERMS:
        raise ResourceError(f"discrepancy budget is K (N + 256) <= {DISCREPANCY_MAX_TERMS}, "
                            f"got N={pts.size}, K={K}")
    total = 1.0 / K
    for k in range(1, K + 1):
        total += 3.0 * abs(weyl_sum(pts, k)) / k
    return total
