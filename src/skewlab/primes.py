"""Segmented prime sieve, arithmetic functions, and combinatorial sieve weights.

The sieve is odd-only and segmented; segment marking is the hot kernel and
strikes each base prime's multiples with one strided numpy slice.
Factorization is trial division against a cached prime table, enough for
n <= 1e12.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from skewlab.errors import InvalidInputError, RangeError, ResourceError

DEFAULT_LIMIT = 2_000_000_000
SEGMENT_SIZE = 1 << 20  # odd numbers per segment


def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def _mark_segment(mask, low, base):
    # mask[i] covers the odd number low + 2*i
    n = mask.shape[0]
    hi = low + 2 * n
    for p in base:
        p = int(p)
        if p == 2:
            continue
        p2 = p * p
        if p2 >= hi:
            break
        start = max(p2, ((low + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        mask[(start - low) // 2 :: p] = False
    return mask


class PrimeSource:
    """Read-only prime supplier over [2, limit]; every call sieves its range afresh."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        self.limit = int(limit)
        self._base = simple_sieve(1 << 16)  # extended on demand

    def _base_upto(self, n: int) -> np.ndarray:
        if self._base[-1] < n:
            self._base = simple_sieve(max(n, 2 * int(self._base[-1])))
        return self._base[self._base <= n]

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Ascending primes p with lo <= p <= hi."""
        lo, hi = int(lo), int(hi)
        if hi > self.limit:
            raise RangeError(f"hi = {hi} beyond source limit {self.limit}")
        if hi < 2 or hi < lo:
            return np.empty(0, dtype=np.int64)
        lo = max(lo, 2)
        base = self._base_upto(math.isqrt(hi) + 1)
        out = []
        if lo <= 2 <= hi:
            out.append(np.array([2], dtype=np.int64))
        start = max(lo, 3)
        if start % 2 == 0:
            start += 1
        span = 2 * SEGMENT_SIZE
        low = start
        while low <= hi:
            count = min(SEGMENT_SIZE, (hi - low) // 2 + 1)
            mask = np.ones(count, dtype=np.bool_)
            _mark_segment(mask, low, base)
            seg = low + 2 * np.flatnonzero(mask).astype(np.int64)
            out.append(seg[seg > 1])
            low += span
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def chebyshev_theta(self, N: int) -> float:
        """theta(N) = sum of log p over primes p <= N."""
        if N > self.limit:
            raise RangeError(f"N = {N} beyond source limit {self.limit}")
        if N < 2:
            return 0.0
        total = 0.0
        for lo in range(2, N + 1, 2 * SEGMENT_SIZE):
            hi = min(lo + 2 * SEGMENT_SIZE - 1, N)
            p = self.primes_in(lo, hi)
            total += float(np.sum(np.log(p.astype(np.float64))))
        return total


_DEFAULT_SOURCE = None


def default_source() -> PrimeSource:
    global _DEFAULT_SOURCE
    if _DEFAULT_SOURCE is None:
        _DEFAULT_SOURCE = PrimeSource()
    return _DEFAULT_SOURCE


def primes_in(lo: int, hi: int) -> np.ndarray:
    return default_source().primes_in(lo, hi)


def chebyshev_theta(N: int) -> float:
    return default_source().chebyshev_theta(N)


# ---------------------------------------------------------------------------
# arithmetic functions


_FACTOR_TABLE_LIMIT = 1_000_000


@lru_cache(maxsize=1)
def _factor_primes() -> np.ndarray:
    return simple_sieve(_FACTOR_TABLE_LIMIT)


def factorize(n: int):
    """Sorted list of (p, exponent) pairs; trial division, n <= 1e12."""
    if n < 1:
        raise InvalidInputError(f"factorize needs n >= 1, got {n}")
    if n > 10**12:
        raise ResourceError(f"factorization budget is n <= 1e12, got {n}")
    out = []
    m = n
    for p in _factor_primes():
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
    primes = simple_sieve(math.isqrt(N)) if N >= 4 else np.empty(0, dtype=np.int64)
    prod = np.ones(N + 1, dtype=np.int64)  # product of p^{v_p(n)} over p <= sqrt(N)
    for p in primes:
        p = int(p)
        mu[p::p] *= -1
        if p * p <= N:
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
        sieve_primes = [int(p) for p in simple_sieve(w)]
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
