"""Segmented prime sieve, arithmetic functions, and combinatorial sieve weights.

PrimeSource.primes_in is the one sieve: odd-only and segmented, each segment
struck with one strided numpy slice per base prime from start offsets computed
whole-array.  Its table of small primes feeds the segments and factorize,
which trial-divides by the default source's table, enough for n <= 1e12.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from skewlab.errors import InvalidInputError, RangeError, ResourceError

DEFAULT_LIMIT = 2_000_000_000
SEGMENT_SIZE = 1 << 20  # odd numbers per segment


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


def chebyshev_theta(N: int) -> float:
    """theta(N) = sum of log p over primes p <= N, one segment window at a time."""
    if N > default_source().limit:
        raise RangeError(f"N = {N} beyond source limit {default_source().limit}")
    return sum((float(np.sum(np.log(primes_in(lo, hi).astype(np.float64))))
                for lo, hi in segment_windows(N)), 0.0)


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


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def von_mangoldt(n: int) -> float:
    """log p on prime powers p^a, zero elsewhere."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if n == 1:
        return 0.0
    fac = factorize(n)
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


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


# ---------------------------------------------------------------------------
# combinatorial sieve weights

MAJORANT_TRUNCATION = 6  # even, so the truncated Brun sum majorizes 1_prime


@dataclass
class SieveWeights:
    """Divisor weights lambda_d of one of the two supported kinds.

    prime-majorant: Brun pure sieve truncated at MAJORANT_TRUNCATION prime
    factors; |lambda_d| <= 1 and 1_prime(n) <= sum_{d|n, d<=z} lambda_d for
    every n above the sifting bound z^(1/MAJORANT_TRUNCATION).

    coprimality: lambda_e = mu(e) on squarefree e built from primes dividing d
    that are <= (log q)^A, with at most (loglog q)^2 of them; used to expand
    the indicator 1_{(n,d)=1} up to explicitly vanishing error terms.
    """

    kind: str
    z: float
    lambdas: dict
    q: int = None
    d: int = None
    A: float = None
    sift_bound: int = None  # prime-majorant: primes <= sift_bound are sieved
    meta: dict = field(default_factory=dict)

    def divisor_sum(self, n: int) -> int:
        """sum of lambda_d over d | n (d <= z is built into the support)."""
        return sum(lam for d, lam in self.lambdas.items() if n % d == 0)


def _subsets_products(primes, max_omega, cap):
    """All squarefree products of <= max_omega of the given primes, <= cap."""
    out = {1: 0}  # product -> number of prime factors
    for p in primes:
        extra = {}
        for v, w in out.items():
            nv = v * p
            if w + 1 <= max_omega and nv <= cap:
                extra[nv] = w + 1
        out.update(extra)
    return out


def build_sieve_weights(kind: str, **params) -> SieveWeights:
    """Construct SieveWeights; see SieveWeights for the two kinds."""
    if kind == "coprimality":
        q, d, A = params["q"], params["d"], params["A"]
        if q < 3:
            raise RangeError("coprimality weights need q >= 3 (loglog q defined)")
        if d < 1 or q % d != 0:
            raise InvalidInputError(f"d = {d} must divide q = {q}")
        if A <= 0:
            raise RangeError("A must be positive")
        loglogq = math.log(math.log(q))
        z = math.exp(A * max(loglogq, 0.0) ** 3)
        p_cap = math.log(q) ** A
        omega_cap = max(loglogq, 0.0) ** 2
        admissible = [p for p, _ in factorize(d) if p <= p_cap]
        products = _subsets_products(admissible, math.floor(omega_cap), math.inf)
        lambdas = {e: (-1 if w % 2 else 1) for e, w in products.items()}
        return SieveWeights(kind=kind, z=z, lambdas=lambdas, q=q, d=d, A=A,
                            meta={"p_cap": p_cap, "omega_cap": omega_cap})

    if kind == "prime-majorant":
        z = params["z"]
        if z < 4:
            raise RangeError("prime-majorant needs z >= 4")
        w = int(z ** (1.0 / MAJORANT_TRUNCATION))
        sieve_primes = primes_in(2, w).tolist()
        products = _subsets_products(sieve_primes, MAJORANT_TRUNCATION, z)
        lambdas = {dd: (-1 if k % 2 else 1) for dd, k in products.items()}
        return SieveWeights(kind=kind, z=z, lambdas=lambdas, sift_bound=w)

    raise InvalidInputError(f"unknown sieve kind {kind!r}")


def coprimality_decomposition_error(n: int, weights: SieveWeights):
    """(lhs, rhs, indicator1, indicator2) of the coprimality expansion.

    lhs = 1_{(n,d)=1}; rhs = sum_{e|n} lambda_e.  indicator1 flags a prime
    p | gcd(n,d) with p > (log q)^A; indicator2 flags omega(n) > (loglog q)^2.
    The expansion is exact (lhs == rhs) whenever both indicators vanish.
    """
    if weights.kind != "coprimality":
        raise InvalidInputError("needs coprimality-kind weights")
    d, pc, oc = weights.d, weights.meta["p_cap"], weights.meta["omega_cap"]
    lhs = 1 if math.gcd(n, d) == 1 else 0
    rhs = weights.divisor_sum(n)
    fac = factorize(n)
    ind1 = any(d % p == 0 and p > pc for p, _ in fac)
    ind2 = len(fac) > oc
    return lhs, rhs, int(ind1), int(ind2)


def coprimality_weight_sum(weights: SieveWeights) -> Fraction:
    """Exact sum of lambda_e / e; compare against phi(d)/d."""
    return sum(Fraction(lam, e) for e, lam in weights.lambdas.items())


def majorant_window_average(weights: SieveWeights, x: int, y: int) -> float:
    """sum over n in [x, x+y] of sum_{d|n} lambda_d, divided by y/log z."""
    total = 0
    for d, lam in weights.lambdas.items():
        count = (x + y) // d - (x - 1) // d
        total += lam * count
    return total / (y / math.log(weights.z))
