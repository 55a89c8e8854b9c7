"""Exact combinatorial prime-decomposition identities.

Vaughan, Linnik, Heath-Brown, and Buchstab are verified exactly, with no
floating point in the checks.  Vaughan's terms live in the vector space
spanned by {log p}: each is a LogVector of int multiplicities per prime,
computed from the one factorization of n by summing over its squarefree
divisors.  Linnik's ordered-factorization counts come from the same single
factorization through the multiplicative d_j(n); only its 1/k-weighted sides
are Fractions.  The partition lemma is an exhaustive finite search.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from skewlab.errors import IntegrityError, PreconditionError, ResourceError
from skewlab.primes import factorize, mobius_upto, simple_sieve


class LogVector:
    """Element of the rational vector space with basis {log p : p prime}.

    Coordinates keep the type they are given; the identities here give ints.
    """

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        self.coords = {p: c for p, c in (coords or {}).items() if c != 0}

    @classmethod
    def log_of(cls, n: int) -> "LogVector":
        """log n as sum of v_p(n) log p."""
        return cls({p: e for p, e in factorize(n)})

    @classmethod
    def von_mangoldt(cls, n: int) -> "LogVector":
        fac = factorize(n) if n > 1 else []
        if len(fac) == 1:
            return cls({fac[0][0]: 1})
        return cls()

    def __add__(self, other):
        out = dict(self.coords)
        for p, c in other.coords.items():
            out[p] = out.get(p, 0) + c
        return LogVector(out)

    def __sub__(self, other):
        out = dict(self.coords)
        for p, c in other.coords.items():
            out[p] = out.get(p, 0) - c
        return LogVector(out)

    def __eq__(self, other):
        return self.coords == other.coords

    def is_zero(self) -> bool:
        return not self.coords

    def to_float(self) -> float:
        return sum(float(c) * math.log(p) for p, c in self.coords.items())

    def __repr__(self):
        if not self.coords:
            return "LogVector(0)"
        terms = " + ".join(f"{c}*log{p}" for p, c in sorted(self.coords.items()))
        return f"LogVector({terms})"


def vaughan_decompose(n: int, z: int):
    """The three Vaughan terms and their total, all exact LogVectors.

    term1 = sum_{d|n, d<=z} mu(d) log(n/d)
    term2 = sum_{dc|n, d,c<=z} mu(d) Lambda(c)
    term3 = sum_{dc|n, d>z, c>z} mu(d) Lambda(c)
    total = term1 - term2 + term3, which must equal Lambda(n) exactly.

    Only squarefree d contribute, and Lambda(c) = log p at c = p^j.  So with
    a = v_p(n/d), the coordinate at p of term1 is the sum over d <= z of
    mu(d) a, of term2 the sum over d <= z of mu(d) #{1 <= j <= a : p^j <= z},
    and of term3 the sum over d > z of mu(d) #{1 <= j <= a : p^j > z}.
    """
    if not n > z >= 1:
        raise PreconditionError(f"need n > z >= 1, got n={n}, z={z}")
    fac = factorize(n)
    # j_max[p] = #{j >= 1 : p^j <= z}
    j_max = {p: next(j for j in itertools.count() if p ** (j + 1) > z) for p, _ in fac}
    squarefree = [(1, 1)]  # (d, mu(d)) over the squarefree divisors d of n
    for p, _ in fac:
        squarefree += [(d * p, -mu) for d, mu in squarefree]
    terms = [dict.fromkeys(j_max, 0) for _ in range(3)]
    for d, mu in squarefree:
        for p, e in fac:
            a = e - (d % p == 0)
            small = min(a, j_max[p])
            if d <= z:
                terms[0][p] += mu * a
                terms[1][p] += mu * small
            else:
                terms[2][p] += mu * (a - small)
    term1, term2, term3 = map(LogVector, terms)
    total = term1 - term2 + term3
    if total.coords != ({fac[0][0]: 1} if len(fac) == 1 else {}):
        raise IntegrityError(f"Vaughan identity failed at n={n}, z={z}")
    return term1, term2, term3, total


def linnik_check(n: int, z: int):
    """(lhs, rhs) of Linnik's identity as exact Fractions.

    lhs = -sum_k (-1)^k / k * d*_{k,z}(n); rhs = 1/a when n = p^a with p > z,
    else 0.  (The prime-power side requires the prime itself to exceed the
    sifting level, matching the generating-function identity.)

    d*_{k,z}(n) counts ordered factorizations of n into k parts > 1 whose
    prime factors all exceed z.  It is 0 when a prime <= z divides n, and
    otherwise sum_{j=1..k} (-1)^(k-j) C(k, j) d_j(n) by inclusion-exclusion
    over the parts equal to 1.  d_j(n) is the product of C(e+j-1, j-1) over
    the exponents e of n, as in primes.divisor_count_k, taken from the
    factorization already in hand.
    """
    if n < 2 or z < 1:
        raise PreconditionError("need n >= 2 and z >= 1")
    fac = factorize(n)
    if fac[0][0] <= z:
        return Fraction(0), Fraction(0)
    exps = [e for _, e in fac]
    d = [0] + [math.prod(math.comb(e + j - 1, j - 1) for e in exps)
               for j in range(1, sum(exps) + 1)]  # d[j] = d_j(n); d[0] unused
    lhs = Fraction(0)
    for k in range(1, len(d)):
        count = sum((-1) ** (k - j) * math.comb(k, j) * d[j] for j in range(1, k + 1))
        lhs -= Fraction((-1) ** k * count, k)
    rhs = Fraction(1, exps[0]) if len(fac) == 1 else Fraction(0)
    return lhs, rhs


def _dirichlet_convolve_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer Dirichlet convolution of arrays indexed 1..N (index 0 unused)."""
    N = len(a) - 1
    out = np.zeros(N + 1, dtype=object)
    for d in range(1, N + 1):
        if a[d] == 0:
            continue
        ad = a[d]
        for m in range(d, N + 1, d):
            out[m] += ad * b[m // d]
    return out


def heathbrown_coeff_check(k: int, z: int, N: int) -> float:
    """Worst defect of the k-fold Heath-Brown decomposition on 1..N.

    With z^k >= N the remainder coefficients vanish on [1, N], so
    Lambda(n) = sum_{j<=k} (-1)^{j-1} C(k,j) (log * 1^{*(j-1)} * mu_z^{*j})(n)
    exactly.  The integer convolutions are exact; the log factor is compared
    coordinatewise per prime, so the returned defect is 0.0 unless the
    identity (or this implementation) is broken.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if z**k < N:
        raise PreconditionError(f"need z^k >= N, got {z}^{k} < {N}")
    one = np.ones(N + 1, dtype=object)
    one[0] = 0
    mu = mobius_upto(N).astype(object)
    mu_z = np.where(np.arange(N + 1) <= z, mu, 0)

    weight = np.zeros(N + 1, dtype=object)  # sum_j (-1)^{j-1} C(k,j) 1^{*(j-1)} * mu_z^{*j}
    for j in range(1, k + 1):
        conv = mu_z.copy()
        for _ in range(j - 1):
            conv = _dirichlet_convolve_int(conv, mu_z)
        for _ in range(j - 1):
            conv = _dirichlet_convolve_int(conv, one)
        sign = 1 if (j - 1) % 2 == 0 else -1
        weight += sign * math.comb(k, j) * conv

    # candidate(n) = sum_{d|n} weight(n/d) * logvec(d); its coordinate at p is
    # sum_{a >= 1} (weight * 1)(n / p^a)
    weight_one = _dirichlet_convolve_int(weight, one)
    worst = Fraction(0)
    primes = simple_sieve(N)
    for p in primes:
        p = int(p)
        coord = np.zeros(N + 1, dtype=object)
        pa = p
        while pa <= N:
            for m in range(pa, N + 1, pa):
                coord[m] += weight_one[m // pa]
            pa *= p
        # Lambda(n) coordinate: 1 at n = p^a
        pa = p
        while pa <= N:
            coord[pa] -= 1
            pa *= p
        nz = np.nonzero(coord[1:])[0]
        if len(nz):
            worst = max(worst, max(abs(Fraction(coord[i + 1])) for i in nz))
    return float(worst)


def _least_prime_factor_window(lo: int, hi: int) -> np.ndarray:
    """lpf(n) for n in [lo, hi]; lpf(1) = 0 sentinel meaning 'no prime factor'."""
    n = hi - lo + 1
    lpf = np.zeros(n, dtype=np.int64)
    for p in simple_sieve(math.isqrt(hi)):
        p = int(p)
        start = ((lo + p - 1) // p) * p
        idx = np.arange(start - lo, n, p)
        sel = idx[lpf[idx] == 0]
        lpf[sel] = p
    rest = np.flatnonzero(lpf == 0) + lo
    lpf[rest - lo] = rest  # primes > sqrt(hi) and the number 1 (lpf 1 below)
    if lo <= 1 <= hi:
        lpf[1 - lo] = 0
    return lpf


def _sieved_count(lo: int, hi: int, z: int) -> int:
    """#{n in [lo, hi] : p | n => p >= z}; n = 1 counts (vacuous condition)."""
    if hi < lo:
        return 0
    lpf = _least_prime_factor_window(lo, hi)
    return int(np.count_nonzero((lpf >= z) | (lpf == 0)))


def buchstab_check(n_range, w: int, z: int):
    """(lhs, rhs) of Buchstab's identity S(A,z) = S(A,w) - sum_{w<=p<z} S(A_p,p).

    A is the integer window [lo, hi]; counts are exact enumerations.
    """
    lo, hi = map(int, n_range)
    if not 2 <= w <= z:
        raise PreconditionError(f"need 2 <= w <= z, got w={w}, z={z}")
    lhs = _sieved_count(lo, hi, z)
    rhs = _sieved_count(lo, hi, w)
    for p in simple_sieve(z - 1):
        p = int(p)
        if p < w:
            continue
        # S(A_p, p) counts m with p*m in A and q | m => q >= p
        mlo = (lo + p - 1) // p
        mhi = hi // p
        rhs -= _sieved_count(mlo, mhi, p)
    return lhs, rhs


def combi_partition(a, eta: float):
    """Partition {0..k-1} into I, J, K with |sum_I - sum_J| <= 1/3 - eta and
    sum_K <= 5/9 - 2*eta, by exhaustive search.

    Returns (I, J, K) as sorted tuples.  Raises PreconditionError when the
    hypotheses fail and IntegrityError when no partition exists on valid
    input (which would contradict the lemma).
    """
    a = [float(x) for x in a]
    k = len(a)
    if k < 4:
        raise PreconditionError("need k >= 4 parts")
    if not 0 < eta < 1e-5:
        raise PreconditionError("need eta in (0, 1e-5)")
    if abs(sum(a) - 1.0) > 1e-9:
        raise PreconditionError("parts must sum to 1")
    for i, x in enumerate(a[:-1]):
        if not 0 < x < 1 / 3 - 100 * eta:
            raise PreconditionError(f"a[{i}] = {x} outside (0, 1/3 - 100*eta)")
    if not 0 < a[-1] < 1 / 3 + 100 * eta:
        raise PreconditionError(f"a[{k - 1}] = {a[-1]} outside (0, 1/3 + 100*eta)")
    if k > 20:
        raise ResourceError("exhaustive search capped at k = 20")

    idx = range(k)
    for ksize in range(1, k - 1):
        for K in itertools.combinations(idx, ksize):
            sK = sum(a[i] for i in K)
            if sK > 5 / 9 - 2 * eta:
                continue
            rest = [i for i in idx if i not in K]
            for isize in range(1, len(rest)):
                for I in itertools.combinations(rest, isize):
                    J = tuple(i for i in rest if i not in I)
                    sI = sum(a[i] for i in I)
                    sJ = sum(a[i] for i in J)
                    if abs(sI - sJ) <= 1 / 3 - eta:
                        return tuple(I), J, K
    raise IntegrityError("no valid partition found: contradicts the partition lemma")
