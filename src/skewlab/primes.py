"""Segmented prime sieve and the arithmetic functions built on it.

PrimeSource.primes_in is the one sieve: odd-only and segmented, each segment
struck with one strided numpy slice per base prime from start offsets computed
whole-array.  Its table of small primes feeds the segments and factorize,
which trial-divides by the default source's table, enough for n <= 1e12.
"""

import math

import numpy as np

from skewlab.errors import InvalidInputError, RangeError, ResourceError

DEFAULT_LIMIT = 2_000_000_000
SEGMENT_SIZE = 1 << 20  # odd numbers per segment
MOBIUS_MAX_N = 10**8  # mobius_upto holds about 18 bytes per n: 1.8 GB here


def segment_windows(N: int, start: int = 2):
    """(lo, hi) windows covering [start, N] in order: lo = start + k * 2 * SEGMENT_SIZE,
    hi = min(lo + 2 * SEGMENT_SIZE - 1, N), so each window sieves as one segment."""
    for lo in range(start, N + 1, 2 * SEGMENT_SIZE):
        yield lo, min(lo + 2 * SEGMENT_SIZE - 1, N)


class PrimeSource:
    """Read-only prime supplier over [2, limit]; every call sieves its range afresh
    from one table of the primes <= _top, which grows on demand and serves factorize."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        self.limit = int(limit)
        self._primes = np.array([2, 3, 5, 7], dtype=np.int64)  # every prime <= _top
        self._top = 10

    def _table(self, n: int) -> np.ndarray:
        """The table, first grown to hold every prime <= n."""
        if n > self._top:
            top = min(max(n, 2 * self._top), self.limit)
            self._primes = self._sieve(2, top)
            self._top = top
        return self._primes

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Ascending primes p with lo <= p <= hi."""
        lo, hi = int(lo), int(hi)
        if hi > self.limit:
            raise RangeError(f"hi = {hi} beyond source limit {self.limit}")
        return self._sieve(lo, hi)

    def _sieve(self, lo: int, hi: int) -> np.ndarray:
        # the table grows through here, so an override or wrapper of primes_in sees
        # only its callers' ranges.  Odd-only segments: mask[i] stands for low + 2i
        # and each odd base prime strikes from its first odd multiple >= max(p^2, low)
        if hi < 2 or hi < lo:
            return np.empty(0, dtype=np.int64)
        table = self._table(math.isqrt(hi))
        base = table[1 : np.searchsorted(table, math.isqrt(hi), side="right")]
        out = [np.array([2], dtype=np.int64)] if lo <= 2 else []
        for low in range(max(lo, 3) | 1, hi + 1, 2 * SEGMENT_SIZE):
            count = min(SEGMENT_SIZE, (hi - low) // 2 + 1)
            ps = base[base * base < low + 2 * count]
            first = np.maximum(ps * ps, low + (-low) % ps)
            first += ps * (first % 2 == 0)
            mask = np.ones(count, dtype=bool)
            for p, i in zip(ps.tolist(), ((first - low) >> 1).tolist()):
                mask[i::p] = False
            out.append(low + 2 * np.flatnonzero(mask))
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


_DEFAULT_SOURCE = None


def default_source() -> PrimeSource:
    global _DEFAULT_SOURCE
    if _DEFAULT_SOURCE is None:
        _DEFAULT_SOURCE = PrimeSource()
    return _DEFAULT_SOURCE


def primes_in(lo: int, hi: int) -> np.ndarray:
    return default_source().primes_in(lo, hi)


def prime_windows(src, N: int):
    """(lo, hi, primes in [lo, hi], their logs) per segment window of [2, N], from src."""
    for lo, hi in segment_windows(N):
        ps = src.primes_in(lo, hi)
        yield lo, hi, ps, np.log(ps.astype(np.float64))


def chebyshev_theta(N: int) -> float:
    """theta(N) = sum of log p over primes p <= N, one segment window at a time."""
    src = default_source()
    if N > src.limit:
        raise RangeError(f"N = {N} beyond source limit {src.limit}")
    return sum((float(np.sum(logp)) for *_, logp in prime_windows(src, N)), 0.0)


# ---------------------------------------------------------------------------
# arithmetic functions


def factorize(n: int):
    """Sorted list of (p, exponent) pairs; trial division, n <= 1e12."""
    if n < 1:
        raise InvalidInputError(f"factorize needs n >= 1, got {n}")
    if n > 10**12:
        raise ResourceError(f"factorization budget is n <= 1e12, got {n}")
    out = []
    m = n
    for p in default_source()._table(math.isqrt(n)):  # up to the first p with p^2 > m
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return out


def coprime_mask(lo: int, hi: int, primes) -> np.ndarray:
    """Boolean mask over [lo, hi]: True where n is divisible by none of the primes."""
    keep = np.ones(max(hi - lo + 1, 0), dtype=bool)
    for p in primes:
        keep[-lo % p :: p] = False
    return keep


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def divisor_count_k(k: int, n: int) -> int:
    """d_k(n): ordered k-factorizations; multiplicative, d_k(p^a) = C(a+k-1, k-1)."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    out = 1
    for _, e in factorize(n):
        out *= math.comb(e + k - 1, k - 1)
    return out


def mobius_upto(N: int) -> np.ndarray:
    """mu(n) for n = 0..N as an int8 array (mu(0) set to 0)."""
    if N < 0:
        raise InvalidInputError("N must be >= 0")
    if N > MOBIUS_MAX_N:
        raise ResourceError(f"mobius_upto budget is N <= {MOBIUS_MAX_N}, got {N}")
    mu = np.ones(N + 1, dtype=np.int8)
    mu[0] = 0
    prod = np.ones(N + 1, dtype=np.int64)  # product of p^{v_p(n)} over p <= sqrt(N)
    for p in primes_in(2, math.isqrt(N)).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        k = p
        while k <= N:
            prod[k::k] *= p
            k *= p
    # one prime factor > sqrt(N) remains wherever prod < n
    big = np.arange(N + 1, dtype=np.int64) != prod
    big[0] = False
    mu[big] *= -1
    return mu
