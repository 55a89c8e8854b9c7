"""Exact combinatorial prime-decomposition identities.

Vaughan, Linnik, Heath-Brown, and Buchstab are verified exactly, with no
floating point in the checks.  Vaughan's terms live in the vector space
spanned by {log p}: each is a LogVector of int multiplicities per prime,
computed from the one factorization of n by summing over its squarefree
divisors.  Linnik's ordered-factorization counts come from the same single
factorization through the multiplicative d_j(n); only its 1/k-weighted sides
are Fractions.  Heath-Brown's weight takes k int64 Dirichlet convolutions,
each split at sqrt(N) by the hyperbola method into about 2 sqrt(N) strided
slices and preceded by a check in Python ints that its result fits in int64;
beyond that bound the check raises ResourceError (CLI exit 3).  Buchstab's
sifted counts each strike the multiples of a prefix of the primes below z,
drawn once, from one boolean window.
"""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np

from skewlab.errors import IntegrityError, PreconditionError, ResourceError
from skewlab.primes import coprime_mask, factorize, mobius_upto, primes_in

BUCHSTAB_MAX_LENGTH = 10**8  # integers in a Buchstab window: one boolean mask of them


class LogVector:
    """Element of the rational vector space with basis {log p : p prime}.

    Coordinates keep the type they are given; the identities here give ints.
    """

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        self.coords = {p: c for p, c in (coords or {}).items() if c != 0}

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
    D = math.lcm(*range(1, len(d)))  # the common denominator of the 1/k
    num = 0
    for k in range(1, len(d)):
        count = sum((-1) ** (k - j) * math.comb(k, j) * d[j] for j in range(1, k + 1))
        num -= (-1) ** k * count * (D // k)
    lhs = Fraction(num, D)
    rhs = Fraction(1, exps[0]) if len(fac) == 1 else Fraction(0)
    return lhs, rhs


def _dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dirichlet convolution of int64 arrays indexed 1..N (index 0 unused).

    out[m] = sum_{de = m} a[d] b[e] is split at s = isqrt(N): one strided slice
    per nonzero a[d] with d <= s, then one per nonzero b[e] with e <= N // (s + 1)
    over d in (s, N // e].  Every partial sum of out[m] is a sub-sum of its terms,
    so at most ||a||_1 ||b||_inf in absolute value; that bound is checked in
    Python ints first, so the int64 arithmetic cannot wrap.
    """
    N = len(a) - 1
    if sum(np.abs(a[1:]).tolist()) * int(np.abs(b[1:]).max(initial=0)) >= 2**63:
        raise ResourceError(f"Dirichlet convolution on [1, {N}] would exceed int64")
    out = np.zeros(N + 1, dtype=np.int64)
    s = math.isqrt(N)
    for d in (np.flatnonzero(a[1 : s + 1]) + 1).tolist():
        out[d::d] += a[d] * b[1 : N // d + 1]
    top = int(np.flatnonzero(a)[-1]) if a.any() else 0  # a[d] = 0 for d > top
    for e in (np.flatnonzero(b[1 : N // (s + 1) + 1]) + 1).tolist():
        d_max = min(N // e, top)
        out[e * (s + 1) : e * d_max + 1 : e] += b[e] * a[s + 1 : d_max + 1]
    return out


def heathbrown_coeff_check(k: int, z: int, N: int) -> float:
    """Worst defect of the k-fold Heath-Brown decomposition on 1..N.

    With z^k >= N the remainder coefficients vanish on [1, N], so
    Lambda(n) = sum_{j<=k} (-1)^{j-1} C(k,j) (log * 1^{*(j-1)} * mu_z^{*j})(n)
    exactly.  The log factor is compared coordinatewise per prime: the
    coordinate at p of the right side is sum_{a >= 1} W(n / p^a), where
    W = sum_j (-1)^{j-1} C(k,j) M^{*j} with M = mu_z * 1, since log = Lambda * 1.
    All arithmetic is int64 with every bound checked in Python ints, so the
    returned defect is 0.0 unless the identity (or this implementation) is
    broken; beyond int64 the check raises ResourceError.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if N < 1:
        raise PreconditionError(f"need N >= 1, got N={N}")
    # z^k >= N already holds at k = N.bit_length() for z >= 2, so a huge k costs nothing
    if z < 1 or z ** min(k, N.bit_length()) < N:
        raise PreconditionError(f"need z >= 1 and z^k >= N, got z={z}, k={k}, N={N}")
    one = np.ones(N + 1, dtype=np.int64)
    one[0] = 0
    mu_z = mobius_upto(N).astype(np.int64)
    mu_z[z + 1 :] = 0
    M = _dirichlet_convolve(mu_z, one)
    W = np.zeros(N + 1, dtype=np.int64)
    power = M
    for j in range(1, k + 1):
        if j > 1:
            power = _dirichlet_convolve(power, M)
        c = (-1) ** (j - 1) * math.comb(k, j)
        if abs(c) * int(np.abs(power).max()) + int(np.abs(W).max()) >= 2**63:
            raise ResourceError(f"Heath-Brown weight for k={k} on [1, {N}] would exceed int64")
        W += c * power

    if int(np.abs(W).max()) * N.bit_length() + 1 >= 2**63:
        raise ResourceError(f"Heath-Brown coordinates for k={k} on [1, {N}] would exceed int64")
    worst = 0
    for p in primes_in(2, N).tolist():
        # coordinate p is zero off the multiples n = p m: index it by m <= N // p
        coord = np.zeros(N // p + 1, dtype=np.int64)
        pa1 = 1  # p^(a-1); the multiples n of p^a sit at m = p^(a-1) j
        while pa1 * p <= N:
            coord[pa1::pa1] += W[1 : N // (pa1 * p) + 1]
            coord[pa1] -= 1  # the Lambda(n) coordinate: 1 at n = p^a
            pa1 *= p
        worst = max(worst, int(np.abs(coord).max()))
    return float(worst)


def _sieved_count(lo: int, hi: int, primes) -> int:
    """#{n in [lo, hi] divisible by none of the primes}: S(A, z) for the primes below z."""
    return int(np.count_nonzero(coprime_mask(lo, hi, primes)))


def buchstab_check(n_range, w: int, z: int):
    """(lhs, rhs) of Buchstab's identity S(A,z) = S(A,w) - sum_{w<=p<z} S(A_p,p).

    A is the integer window [lo, hi]; counts are exact enumerations.
    """
    lo, hi = map(int, n_range)
    if lo < 1:
        raise PreconditionError(f"need lo >= 1, got lo={lo}")
    if not 2 <= w <= z:
        raise PreconditionError(f"need 2 <= w <= z, got w={w}, z={z}")
    if hi - lo >= BUCHSTAB_MAX_LENGTH:  # each count holds a mask of the window
        raise ResourceError(f"Buchstab window budget is {BUCHSTAB_MAX_LENGTH} integers, "
                            f"got [{lo}, {hi}]")
    primes = primes_in(2, z - 1).tolist()
    lhs = _sieved_count(lo, hi, primes)
    first = bisect.bisect_left(primes, w)
    rhs = _sieved_count(lo, hi, primes[:first])
    for i in range(first, len(primes)):
        # S(A_p, p) counts m with p*m in A and q | m => q >= p
        p = primes[i]
        rhs -= _sieved_count((lo + p - 1) // p, hi // p, primes[:i])
    return lhs, rhs
