"""The torus skew product T(x,y) = (x+alpha, y+g(x)) and its statistics.

Orbit values T^n(x,y) = (x + n alpha, y + S_n(g)(x)) are computed from exact
fractional parts (per index) or, vectorized, x_n from dd.frac01_int_mult and
y_n from per-frequency tables of e(B theta), e(i 2**11 theta), e(j theta) over
n = B + (i << 11) + j; never by stepwise iteration.  The prime log-weighted and
reduced-residue averages are one orbit sum with weight log p or 1, streamed window
by window in memory O(SEGMENT_SIZE); two worker threads evaluate each window in
chunks, summed in a fixed order, so no value depends on the threads.
Beside them: Weyl sums, an Erdos-Turan star-discrepancy bound, and small-set
measure estimates for trigonometric polynomials.
"""

import math
from dataclasses import dataclass

import numpy as np

from skewlab.cocycle import TrigPoly, birkhoff_closed, orbit_angles
from skewlab.dd import BLOCK_BITS, dd_from_fraction, frac01_int_mult
from skewlab.diophantine import ContinuedFraction
from skewlab.errors import InvalidInputError, RangeError
from skewlab.primes import coprime_mask, default_source, euler_phi, factorize, segment_windows

TWO_PI = 2.0 * math.pi
# the fiber split k = B + (i << _J_BITS) + j of _orbit_phases: B on dd's blocks of
# 2**BLOCK_BITS, their offsets cut into 2**(BLOCK_BITS - _J_BITS) values of i and 2**_J_BITS of j
_J_BITS = (BLOCK_BITS + 1) // 2
# indices per worker task of _orbit_sums.  Keep it above the 9,592 primes up to 10**5:
# perfbench counts 1 + len(g.freqs) frac01_int_mult calls (one orbit_angles chunk) there
CHUNK = 1 << 14
_IN_FLIGHT = 4  # chunks submitted and not yet done: bounds the xs computed ahead


def e(t):
    """e(t) = exp(2 pi i t), elementwise: cos and sin of one 2 pi t, written in place.

    Bit-identical to cos(2 pi t) + 1j sin(2 pi t), except that e(-0.0) has imaginary
    part -0.0.
    """
    ang = TWO_PI * np.asarray(t, dtype=np.float64)
    out = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=out.real)
    np.sin(ang, out=out.imag)
    return out if out.ndim else out[()]


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
    """
    cf = T.cf
    terms = []
    for m, a in zip(T.g.freqs, T.g.amps):
        m = int(m)
        kappa = a * np.exp(2j * math.pi * m * x) / (e(float(cf.frac_signed(m))) - 1.0)
        terms.append((*dd_from_fraction(cf.frac01(m)), 2.0 * kappa))
    return terms


def _fiber_tables(terms, ks: np.ndarray):
    """(b0, [(K, L, Re kappa2)] per frequency): the tables of _orbit_phases for the window ks."""
    b0, b1 = int(ks.min()) >> BLOCK_BITS, int(ks.max()) >> BLOCK_BITS
    n_i, n_j, nb = 1 << (BLOCK_BITS - _J_BITS), 1 << _J_BITS, b1 - b0 + 1
    parts = np.concatenate([np.arange(b0, b1 + 1) << BLOCK_BITS, np.arange(n_i) << _J_BITS,
                            np.arange(n_j)])
    ts = [(kappa2, e(frac01_int_mult(parts, m_hi, m_lo))) for m_hi, m_lo, kappa2 in terms]
    return b0, [(np.outer(k2 * t[:nb], t[nb:-n_j]).ravel(), t[-n_j:], k2.real) for k2, t in ts]


def _fiber_gather(b0: int, tables, ks: np.ndarray, y: float) -> np.ndarray:
    """y_k for k in ks (inside the window of the tables), by gathers from the tables."""
    row, col = (ks >> _J_BITS) - (b0 << (BLOCK_BITS - _J_BITS)), ks & ((1 << _J_BITS) - 1)
    ys = np.full(ks.shape, float(y))
    for K, L, kappa2_re in tables:
        ys += K.real[row] * L.real[col] - K.imag[row] * L.imag[col] - kappa2_re
    return ys


def _orbit_phases(terms, ks: np.ndarray, y: float) -> np.ndarray:
    """y_k = y + S_k(g)(x) for k in ks, terms = _fiber_terms(T, x), by table products.

    k = B + (i << 11) + j with B a multiple of 2**21, 0 <= i < 2**10 and 0 <= j < 2**11
    (dd.BLOCK_BITS = 21 and _J_BITS = 11).
    Per frequency, one frac01_int_mult and one e() on the B from min(ks) to max(ks),
    the i << 11 and the j give tables K = 2 kappa e(B theta) e(i 2**11 theta) and
    L = e(j theta); then 2 Re kappa e(k theta) = Re K[B, i] L[j] by gathers.  ks is one
    window (two blocks at most), and y_k depends on its own k alone.
    """
    return _fiber_gather(*_fiber_tables(terms, ks), ks, y) if ks.size else np.full(0, float(y))


def _chunk_values(tables, ks, w, xs, y: float, fs, out) -> None:
    """out[i] = e(fs[i].b x_k + fs[i].c y_k) w_k over one chunk of a window (a worker's task)."""
    ys = _fiber_gather(*tables, ks, y)
    for f, row in zip(fs, out):
        np.multiply(e(f.b * xs + f.c * ys), w, out=row)


def _orbit_sums(T: SkewProduct, observables, Ns, x: float, y: float, windows):
    """({(f, N): sum_{k <= N} w_k e_{b,c}(T^k(x,y))}, {N: sum_{k <= N} w_k}), one pass.

    windows yields ascending (lo, hi, ks, w): the indices ks in [lo, hi] and their
    weights.  (b, c) = (0, 0) gets no entry: its sum is the weight total.  This thread
    draws the windows and makes each window's fiber tables and each chunk's x_k; two
    worker threads write the chunks' w_k e_{b,c} into one buffer kept for every window.
    Once all chunks of a window are done, its np.sum joins a running total in window
    order, so a value depends on N and the windows alone, never on the threads.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: e()'s importers need no pool

    live = [f for f in dict.fromkeys(observables) if (f.b, f.c) != (0, 0)]
    terms = _fiber_terms(T, x) if live else []
    with_x = any(f.b for f in live)
    mass = {N: 0.0 for N in Ns}  # N below the first window: no index <= N
    sums = {(f, N): 0j for f in live for N in Ns}
    mass_run, runs = 0.0, dict.fromkeys(live, 0j)
    buf = np.empty((len(live), 0), dtype=np.complex128)
    with ThreadPoolExecutor(2) as pool:
        for lo, hi, ks, w in windows:
            here = {N: int(np.searchsorted(ks, N, side="right")) for N in Ns if lo <= N <= hi}
            for N, k in here.items():
                mass[N] = mass_run + float(np.sum(w[:k]))
            mass_run += float(np.sum(w))
            n = ks.size if live else 0
            if n > buf.shape[1]:  # rounded up, so windows a few indices longer reuse it
                buf = np.empty((len(live), -(-n >> 14) << 14), dtype=np.complex128)
            tables, flight = _fiber_tables(terms, ks) if n else None, []
            for a in range(0, n, CHUNK):
                c = slice(a, min(a + CHUNK, n))
                xs = orbit_angles(T.cf, ks[c], x) if with_x else 0.0
                if len(flight) == _IN_FLIGHT:
                    flight.pop(0).result()
                flight.append(pool.submit(_chunk_values, tables, ks[c], w[c], xs, y, live,
                                          buf[:, c]))
            for task in flight:
                task.result()
            for f, vals in zip(live, buf[:, :n]):
                for N, k in here.items():
                    sums[f, N] = runs[f] + np.sum(vals[:k])
                runs[f] += np.sum(vals)
    return sums, mass


def _prime_windows(src, N: int):
    """(lo, hi, primes in [lo, hi], their logs) per segment window of [2, N]."""
    for lo, hi in segment_windows(N):
        ps = src.primes_in(lo, hi)
        yield lo, hi, ps, np.log(ps.astype(np.float64))


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
    windows = _prime_windows(src, int(max(Ns, default=0)))
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
    angles = orbit_angles(cf, np.arange(1, q_n + 1, dtype=np.int64), x)
    thresh = float(q_n) ** (-eps_exponent)
    return int(np.count_nonzero(np.abs(g_block.eval(angles)) <= thresh))
