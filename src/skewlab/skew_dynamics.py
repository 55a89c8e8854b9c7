"""The torus skew product T(x,y) = (x+alpha, y+g(x)) and its statistics.

Orbit values T^n(x,y) = (x + n alpha, y + S_n(g)(x)) are computed from exact
fractional parts (per index) or, vectorized, from per-term tables of e(B theta),
e(i 2**11 theta), e(j theta) over n = B + (i << 11) + j, built once per pass; never by
stepwise iteration.  The fiber y_n takes one table per frequency m of g (theta =
m alpha), and e(b x_n) one per distinct b != 0 (theta = b alpha, times e(b x)), so
x_n itself is never formed.  The prime log-weighted and reduced-residue averages are
one orbit sum with weight log p or 1, streamed window by window in memory
O(SEGMENT_SIZE): one executor worker draws (sieves) the next window while the calling
thread evaluates the current one in chunks, summed in a fixed order, so no value
depends on the threads.
Beside them: Weyl sums and an Erdos-Turan star-discrepancy bound.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from skewlab.cocycle import birkhoff_closed
from skewlab.dd import BLOCK_BITS, dd_from_fraction, e, frac01_int_mult
from skewlab.diophantine import ContinuedFraction, frac_phase
from skewlab.errors import InvalidInputError, RangeError, ResourceError
from skewlab.primes import (coprime_mask, default_source, euler_phi, factorize, prime_windows,
                            segment_windows)

# the fiber split k = B + (i << _J_BITS) + j of _fiber_tables: B on dd's blocks of
# 2**BLOCK_BITS, their offsets cut into 2**(BLOCK_BITS - _J_BITS) values of i and 2**_J_BITS of j
_J_BITS = (BLOCK_BITS + 1) // 2
# indices per evaluated slice of a window in _orbit_sums (2**12 to 2**15 measured: 2**14 is
# fastest).  perfbench counts frac01_int_mult calls, which come from the table builds alone:
# 1 + len(g.freqs) for (b, c) = (1, 1), whatever the chunk
CHUNK = 1 << 14
# largest index an orbit pass takes: at about 34 ns an index, 2**40 is some 10 hours
ORBIT_MAX_INDEX = 1 << 40
# y_k is within FIBER_UNITS (|y| + sum_m 2 |kappa_m|) 2**-52 of the exact fiber (README)
FIBER_UNITS = 8
# largest |c| times that fiber bound an orbit pass takes, in turns: e(c y_k) is then within
# 2 pi 2**-16 (about 1e-4) of its exact value
ORBIT_MAX_PHASE_ERROR = 2.0**-16
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
    """[(2 kappa, e(B theta), e(i 2**11 theta), e(j theta))] per term: one pass's tables.

    terms = [(theta_hi, theta_lo, 2 kappa)], as _fiber_terms gives (theta = m alpha) or
    as _orbit_sums gives for e(b x_k) (theta = b alpha, 2 kappa = e(b x)).
    k = B + (i << 11) + j with B a multiple of 2**21, 0 <= i < 2**10 and 0 <= j < 2**11
    (dd.BLOCK_BITS = 21 and _J_BITS = 11).  Per term, one frac01_int_mult and one e() on
    every B <= top, every i << 11 and every j; both are per element, so each entry is the
    one any subset would give.
    """
    if not terms:
        return []
    n_i, n_j, nb = 1 << (BLOCK_BITS - _J_BITS), 1 << _J_BITS, (top >> BLOCK_BITS) + 1
    parts = np.concatenate([np.arange(nb) << BLOCK_BITS, np.arange(n_i) << _J_BITS,
                            np.arange(n_j)])
    return [(kappa2, *np.split(e(frac01_int_mult(parts, m_hi, m_lo)), [nb, nb + n_i]))
            for m_hi, m_lo, kappa2 in terms]


def _window_tables(tables, ks: np.ndarray):
    """(b0, [(K, L, Re 2 kappa)] per term) for the ascending, nonempty window ks.

    K = 2 kappa e(B theta) e(i 2**11 theta) over the blocks b0 to b1 of ks, flat with
    row (B >> 11) + i counted from b0, and L = e(j theta): then
    2 kappa e(k theta) = K[row] L[j] at _table_index's (row, j).
    """
    b0, b1 = int(ks[0]) >> BLOCK_BITS, int(ks[-1]) >> BLOCK_BITS
    return b0, [(np.outer(k2 * tb[b0 : b1 + 1], ti).ravel(), tj, k2.real)
                for k2, tb, ti, tj in tables]


def _table_index(b0: int, ks: np.ndarray):
    """(row, col) of each k = B + (i << 11) + j of ks in window tables from block b0:
    row (B >> 11) + i - (b0 << 10) of K and column j of L."""
    return (ks >> _J_BITS) - (b0 << (BLOCK_BITS - _J_BITS)), ks & ((1 << _J_BITS) - 1)


def _fiber_gather(tables, row, col, y: float) -> np.ndarray:
    """y_k = y + S_k(g)(x) at the (row, col) of each k (_table_index), by one gather from
    each table; y_k depends on its own k alone."""
    ys = np.full(row.shape, float(y))
    re, im = np.empty(row.shape), np.empty(row.shape)
    for K, L, kappa2_re in tables:
        a, b = K.take(row), L.take(col)
        np.multiply(a.real, b.real, out=re)
        np.multiply(a.imag, b.imag, out=im)
        re -= im
        re -= kappa2_re
        ys += re
    return ys


def _pass_terms(T: SkewProduct, observables, x, y):
    """_fiber_terms(T, x) for an orbit pass over observables ([] if none moves the fiber),
    after the pass's domain checks: integer b and c and finite x and y, else
    InvalidInputError; |c| below 2**53 (c y_k is a float64 product) and |c| times the fiber
    bound FIBER_UNITS (|y| + sum_m 2 |kappa_m|) 2**-52 at most ORBIT_MAX_PHASE_ERROR turns,
    else RangeError."""
    if not all(isinstance(v, numbers.Integral) for f in observables for v in (f.b, f.c)):
        raise InvalidInputError(f"b and c must be integers, got {list(observables)}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"x and y must be finite, got x = {x}, y = {y}")
    c = max((abs(int(f.c)) for f in observables), default=0)
    if c >= 2**53:
        raise RangeError(f"|c| = {c} is not below 2**53, where a float64 holds c exactly")
    terms = _fiber_terms(T, x) if c else []
    bound = FIBER_UNITS * (abs(y) + sum(abs(k2) for *_, k2 in terms)) * 2.0**-52
    if bound and c > ORBIT_MAX_PHASE_ERROR / bound:
        raise RangeError(f"|c| = {c} times the fiber bound {bound:.3e} exceeds "
                         f"ORBIT_MAX_PHASE_ERROR = {ORBIT_MAX_PHASE_ERROR:g} of a turn")
    return terms


def _window_values(live, b0: int, fiber, turns, ks: np.ndarray, w: np.ndarray, y: float,
                   out: np.ndarray, scratch: dict):
    """Write w_k e_{b,c}(T^k(x,y)) of each observable of live into its row of out, for ks.

    fiber and turns (a dict b -> (K, L, _)) are window tables from block b0 (_window_tables),
    scratch a dict b -> a buffer of at least min(CHUNK, ks.size) entries.  Chunk by chunk,
    one (row, col) serves every gather: y_k from the fiber, e(b x_k) = K[row] L[col] per
    distinct b != 0 into its buffer, then e(c y_k) once per distinct c, times e(b x_k) where
    b != 0, times w_k.  Every value depends on its own k alone, and every chunk temporary
    is gone when this returns.
    """
    cs = list(dict.fromkeys(f.c for f in live))
    for a in range(0, ks.size, CHUNK):
        s = slice(a, min(a + CHUNK, ks.size))
        row, col = _table_index(b0, ks[s])
        ys = _fiber_gather(fiber, row, col, y)
        rot = {b: np.multiply(K.take(row), L.take(col), out=scratch[b][: row.size])
               for b, (K, L, _) in turns.items()}
        phases = {c: e(c * ys) for c in cs}
        for f, vals in zip(live, out[:, s]):
            if f.b:
                np.multiply(phases[f.c], rot[f.b], out=vals)
                vals *= w[s]
            else:
                np.multiply(phases[f.c], w[s], out=vals)


def _orbit_sums(T: SkewProduct, observables, Ns, x: float, y: float, windows):
    """({(f, N): sum_{k <= N} w_k e_{b,c}(T^k(x,y))}, {N: sum_{k <= N} w_k}), one pass.

    windows yields ascending (lo, hi, ks, w): the indices ks in [lo, hi], none above
    max(Ns), and their weights.  (b, c) = (0, 0) gets no entry: its sum is the weight
    total.  The domain (_pass_terms) and the index budget are checked before any table is
    built or window drawn.  One executor worker draws each next window while this thread
    evaluates the current one, which it drops before it waits for that draw: at most two
    are alive.  This thread builds the tables once (one per frequency of g, one per
    distinct b != 0) and writes each window's w_k e_{b,c} chunk by chunk into one buffer
    kept for every window; its np.sum joins a running total in window order, so every
    value depends on N and the windows alone.  Leaving the executor joins the worker; an
    exception met while drawing is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import

    top = int(max(Ns, default=0))
    if top > ORBIT_MAX_INDEX:
        raise ResourceError(f"orbit pass budget is N <= {ORBIT_MAX_INDEX} (2**40), got {top}")
    live = [f for f in dict.fromkeys(observables) if (f.b, f.c) != (0, 0)]
    terms = _pass_terms(T, observables, x, y)
    # a frequency with 4 |kappa_m| <= sum_m 2 |kappa_m| 2**-52 moves y_k by at most one unit
    # of the fiber bound, and the gather skips it.  Its tables are built all the same, for
    # perfbench pins the frac01_int_mult count; dropping that build is the benchmark half
    # (ROADMAP item 2)
    unit = sum(abs(k2) for *_, k2 in terms) * 2.0**-52
    fiber = [t for t in _fiber_tables(terms, top) if 2 * abs(t[0]) > unit]
    # e(b x_k) per distinct b != 0: theta = frac(b alpha) and 2 kappa = e(b x), both exact
    bs = list(dict.fromkeys(f.b for f in live if f.b))
    turns = _fiber_tables([(*dd_from_fraction(T.cf.frac01(b)), e(frac_phase(x, b, 0)))
                           for b in map(int, bs)], top)
    mass = {N: 0.0 for N in Ns}  # N below the first window: no index <= N
    sums = {(f, N): 0j for f in live for N in Ns}
    mass_run, runs = 0.0, dict.fromkeys(live, 0j)
    buf, scratch = np.empty((len(live), 0), dtype=np.complex128), {}
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
                scratch = dict(zip(bs, np.empty((len(bs), min(CHUNK, buf.shape[1])),
                                                dtype=np.complex128)))
            if n:
                b0, window_fiber = _window_tables(fiber, ks)
                window_turns = dict(zip(bs, _window_tables(turns, ks)[1]))
                _window_values(live, b0, window_fiber, window_turns, ks, w, y, buf, scratch)
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
