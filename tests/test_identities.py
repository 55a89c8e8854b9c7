import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import LogSum, combi_partition, mobius, von_mangoldt
from skewlab import identities
from skewlab.errors import IntegrityError, PreconditionError, ResourceError
from skewlab.identities import (BUCHSTAB_MAX_Z, _dirichlet_convolve, _sieved_count,
                                buchstab_check, heathbrown_coeff_check, linnik_check,
                                vaughan_decompose)
from skewlab.primes import factorize


def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a plain dense sieve of Eratosthenes: the oracle."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def test_logvector_algebra():
    a = LogSum(dict(factorize(12)))  # 2 log2 + log3
    assert a.coords == {2: Fraction(2), 3: Fraction(1)}
    assert not (a - a).coords
    assert von_mangoldt(9).coords == {3: Fraction(1)}
    assert not von_mangoldt(12).coords


@given(st.integers(1, 5000), st.integers(1, 5000))
@settings(max_examples=80, deadline=None)
def test_logvector_respects_multiplication(a, b):
    # log(ab) = log a + log b in the vector space
    assert LogSum(dict(factorize(a * b))) == (LogSum(dict(factorize(a)))
                                              + LogSum(dict(factorize(b))))


def test_vaughan_examples():
    # n = 7, z = 2: only d = 1 contributes to term1; oracle by hand
    t1, t2, t3, tot = vaughan_decompose(7, 2)
    assert t1.coords == {7: 1} and not t2.coords and not t3.coords
    assert tot.coords == {7: 1}
    # n = 12 composite squareful: total must be Lambda(12) = 0
    _, _, _, tot = vaughan_decompose(12, 2)
    assert not tot.coords
    # prime with z = 1: term1 = log p alone
    t1, t2, t3, _ = vaughan_decompose(13, 1)
    assert t1.coords == {13: 1} and not t2.coords and not t3.coords
    with pytest.raises(PreconditionError):
        vaughan_decompose(5, 5)


@given(st.integers(2, 3000), st.sampled_from([1, 2, 5, 10, 30]))
@settings(max_examples=150, deadline=None)
def test_vaughan_exact_random(n, z):
    if n > z:
        *_, tot = vaughan_decompose(n, z)
        assert tot == von_mangoldt(n)


def _divisor_list(n):
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _vaughan_oracle(n, z):
    """Vaughan's three sums taken divisor by divisor, one log-vector per term."""
    terms = [LogSum(), LogSum(), LogSum()]

    def add(i, mu, v):
        terms[i] = terms[i] + v if mu > 0 else terms[i] - v

    for d in _divisor_list(n):
        mud = mobius(d)
        if mud == 0:
            continue
        if d <= z:
            add(0, mud, LogSum(dict(factorize(n))) - LogSum(dict(factorize(d))))
        for c in _divisor_list(n // d):
            lam = von_mangoldt(c)
            if not lam.coords:
                continue
            if d <= z and c <= z:
                add(1, mud, lam)
            elif d > z and c > z:
                add(2, mud, lam)
    return (*terms, terms[0] - terms[1] + terms[2])


def _linnik_oracle(n, z):
    """Linnik's sides with d*_{k,z}(n) counted by recursion over divisors."""

    @lru_cache(maxsize=None)
    def admissible(m):
        return all(p > z for p, _ in factorize(m))

    @lru_cache(maxsize=None)
    def count(m, k):
        if k == 0:
            return 1 if m == 1 else 0
        if m == 1:
            return 0
        return sum(count(m // d, k - 1) for d in _divisor_list(m) if d > 1 and admissible(d))

    fac = factorize(n)
    kmax = sum(e for _, e in fac)
    lhs = -sum(Fraction((-1) ** k, k) * count(n, k) for k in range(1, kmax + 1))
    rhs = Fraction(1, fac[0][1]) if len(fac) == 1 and fac[0][0] > z else Fraction(0)
    return lhs, rhs


def _assert_identities_match_oracles(n, z):
    if n > z:
        got = [t.coords for t in vaughan_decompose(n, z)]
        assert got == [t.coords for t in _vaughan_oracle(n, z)], ("vaughan", n, z)
        assert all(type(c) is int for t in got for c in t.values())
    assert linnik_check(n, z) == _linnik_oracle(n, z), ("linnik", n, z)


@pytest.mark.parametrize("z", [1, 2, 5, 10, 30])
def test_identities_match_oracles_on_every_small_n(z):
    for n in range(2, 2001):
        _assert_identities_match_oracles(n, z)


def test_identities_match_oracles_on_large_n():
    rng = np.random.default_rng(7)
    seeded = [int(n) for n in rng.integers(2, 10**12, size=12)]
    composite = [510510, 9699690, 2**30, 2**39, 3**25, 720720, 31**2 * 37 * 41 * 43,
                 999983 * 999979]
    for n in seeded + composite:
        for z in (1, 2, 5, 10, 30):
            _assert_identities_match_oracles(n, z)


@pytest.mark.parametrize("z", [2, 5, 10])
def test_vaughan_matches_the_per_divisor_oracle_to_ten_thousand(z):
    for n in range(z + 1, 10**4 + 1):
        got = vaughan_decompose(n, z)
        want = _vaughan_oracle(n, z)
        assert [t.coords for t in got] == [t.coords for t in want], (n, z)
        assert LogSum(got[0].coords) - got[1] + got[2] == got[3] == von_mangoldt(n), (n, z)


def test_linnik_examples():
    assert linnik_check(4, 1) == (Fraction(1, 2), Fraction(1, 2))
    assert linnik_check(6, 1) == (Fraction(0), Fraction(0))
    assert linnik_check(8, 1) == (Fraction(1, 3), Fraction(1, 3))


@given(st.integers(2, 2000), st.sampled_from([1, 2, 10]))
@settings(max_examples=150, deadline=None)
def test_linnik_exact_random(n, z):
    lhs, rhs = linnik_check(n, z)
    assert lhs == rhs


def test_heathbrown_examples():
    assert heathbrown_coeff_check(1, 100, 100) == 0.0
    assert heathbrown_coeff_check(2, 32, 1000) == 0.0
    with pytest.raises(PreconditionError):
        heathbrown_coeff_check(2, 10, 1000)  # z^k < N
    for N in (0, -1):  # N = -1 once ended in an IndexError
        with pytest.raises(PreconditionError):
            heathbrown_coeff_check(2, 40, N)


def _dirichlet_convolve_oracle(a, b):
    """Dirichlet convolution in Python ints, one product per pair (d, m/d)."""
    N = len(a) - 1
    out = np.zeros(N + 1, dtype=object)
    for d in range(1, N + 1):
        if a[d] == 0:
            continue
        for m in range(d, N + 1, d):
            out[m] += int(a[d]) * int(b[m // d])
    return out


@pytest.mark.parametrize("N", [1, 2, 30, 500])
def test_dirichlet_convolve_matches_object_oracle(N):
    rng = np.random.default_rng(N)
    for _ in range(5):
        a = rng.integers(-1000, 1001, size=N + 1) * (rng.random(N + 1) < 0.5)
        b = rng.integers(-10**6, 10**6 + 1, size=N + 1)
        a[0] = b[0] = 0
        got = _dirichlet_convolve(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == _dirichlet_convolve_oracle(a, b).tolist()
    assert not _dirichlet_convolve(np.zeros(N + 1, dtype=np.int64), b).any()


def _dirichlet_convolve_by_divisor(a, b):
    """The int64 convolution by one strided slice per nonzero a[d], about N numpy calls."""
    N = len(a) - 1
    out = np.zeros(N + 1, dtype=np.int64)
    for d in np.flatnonzero(a[1:]) + 1:
        out[d::d] += a[d] * b[1 : N // d + 1]
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 9, 10, 15, 16, 17, 99, 100, 101, 1000])
def test_dirichlet_convolve_matches_divisor_loop(N):
    rng = np.random.default_rng(100 + N)
    for density in (0.02, 0.5, 1.0):
        for top in (N, max(1, N // 7), math.isqrt(N)):  # a[d] = 0 beyond top
            a = rng.integers(-50, 51, size=N + 1) * (rng.random(N + 1) < density)
            b = rng.integers(-10**6, 10**6 + 1, size=N + 1) * (rng.random(N + 1) < density)
            a[top + 1 :] = 0
            a[0] = b[0] = 0
            for x, y in ((a, b), (b, a)):
                got = _dirichlet_convolve(x, y)
                assert got.dtype == np.int64
                assert np.array_equal(got, _dirichlet_convolve_by_divisor(x, y)), (N, density, top)


def test_dirichlet_convolve_rejects_what_int64_cannot_hold():
    a = np.array([0, 2**31, 2**31], dtype=np.int64)
    b = np.array([0, 2**31, 1], dtype=np.int64)
    with pytest.raises(ResourceError):
        _dirichlet_convolve(a, b)  # ||a||_1 ||b||_inf = 2^63


def test_heathbrown_detects_a_wrong_mobius_value(monkeypatch):
    true_mobius = identities.mobius_upto

    def flipped(N):
        mu = true_mobius(N).copy()
        if N >= 6:
            mu[6] = -mu[6]
        return mu

    monkeypatch.setattr(identities, "mobius_upto", flipped)
    # mu_z * 1 is then wrong from n = 6 on, so the weight is wrong from 6^k on;
    # the log coordinates read the weight at n / p^a <= N / 2
    for k, z, N in [(1, 100, 100), (2, 10, 100), (2, 32, 1000), (3, 8, 432)]:
        assert heathbrown_coeff_check(k, z, N) > 0, (k, z, N)
    assert heathbrown_coeff_check(1, 100, 100) == 8.0
    assert heathbrown_coeff_check(3, 8, 431) == 0.0
    assert heathbrown_coeff_check(3, 5, 100) == 0.0  # z < 6: mu(6) is never read


def test_heathbrown_beyond_int64_is_resource_error():
    assert heathbrown_coeff_check(40, 2, 2000) == 0.0
    with pytest.raises(ResourceError):
        heathbrown_coeff_check(60, 2, 2000)


def _least_prime_factor_count(lo, hi, z):
    """#{n in [lo, hi] : lpf(n) >= z}, n = 1 included, from a full lpf table."""
    if hi < lo:
        return 0
    lpf = np.zeros(hi - lo + 1, dtype=np.int64)
    for p in simple_sieve(math.isqrt(hi)).tolist():
        idx = np.arange(-lo % p, hi - lo + 1, p)
        lpf[idx[lpf[idx] == 0]] = p
    rest = np.flatnonzero(lpf == 0) + lo
    lpf[rest - lo] = rest  # primes > sqrt(hi), and 1, which has no prime factor
    return int(np.count_nonzero((lpf >= z) | (np.arange(lo, hi + 1) == 1)))


def test_sieved_count_matches_least_prime_factor_oracle():
    rng = np.random.default_rng(11)
    cases = [(1, 1, 2), (1, 100, 2), (1, 100, 50), (1, 30, 100), (2, 1, 5), (10, 3, 2),
             (90, 100, 11), (1, 1, 7), (999_000, 1_000_000, 2), (10**6 - 200, 10**6, 1200)]
    for _ in range(60):
        lo = int(rng.integers(1, 10**6))
        hi = lo + int(rng.integers(-5, 3000))
        cases.append((lo, hi, int(rng.integers(2, 300))))
    for lo, hi, z in cases:
        got = _sieved_count(lo, hi, simple_sieve(z - 1).tolist())
        assert got == _least_prime_factor_count(lo, hi, z), (lo, hi, z)


def test_buchstab_examples():
    lhs, rhs = buchstab_check((1, 100), 2, 10)
    assert lhs == rhs
    # oracle: numbers in [1,100] with least prime factor >= 10 are
    # 1 and the primes in [10,100] -- 22 of them
    assert lhs == 1 + 21
    assert buchstab_check((50, 150), 5, 5)[0] == buchstab_check((50, 150), 5, 5)[1]
    lhs, rhs = buchstab_check((101, 101), 2, 7)
    assert lhs == rhs == 1
    with pytest.raises(PreconditionError):
        buchstab_check((1, 100), 1, 10)
    with pytest.raises(PreconditionError):
        buchstab_check((0, 100), 2, 10)
    with pytest.raises(ResourceError):  # numpy's "Maximum allowed dimension exceeded" before
        buchstab_check((10, 2**64), 3, 20)


def test_buchstab_refuses_z_beyond_its_budget(monkeypatch):
    # it listed the primes below z, then struck a prefix of them per prime: z = 1e8 ran on
    # past 120 s.  Now z is refused before any prime is listed
    assert buchstab_check((1, 100), 2, BUCHSTAB_MAX_Z) == (1, 1)

    def listed(*args):
        raise AssertionError("primes listed before the budget check")

    monkeypatch.setattr(identities, "primes_in", listed)
    for z in (BUCHSTAB_MAX_Z + 1, 10**8):
        with pytest.raises(ResourceError):
            buchstab_check((1, 100), 2, z)


@given(st.integers(1, 10**6 - 10**4), st.integers(10, 10**4),
       st.integers(2, 60), st.integers(0, 160))
@settings(max_examples=40, deadline=None)
def test_buchstab_random_windows(lo, length, w, dz):
    z = w + dz
    lhs, rhs = buchstab_check((lo, lo + length), w, z)
    assert lhs == rhs


def _check_partition(a, eta, I, J, K):
    assert set(I) | set(J) | set(K) == set(range(len(a)))
    assert not (set(I) & set(J)) and not (set(I) & set(K)) and not (set(J) & set(K))
    assert I and J and K
    assert abs(sum(a[i] for i in I) - sum(a[j] for j in J)) <= 1 / 3 - eta
    assert sum(a[k] for k in K) <= 5 / 9 - 2 * eta


def test_combi_partition_quarters():
    a = [0.25, 0.25, 0.25, 0.25]
    eta = 1e-6
    I, J, K = combi_partition(a, eta)
    _check_partition(a, eta, I, J, K)
    # the textbook choice K = {first two}, I, J singletons is itself valid
    _check_partition(a, eta, (2,), (3,), (0, 1))


def test_combi_partition_fifths():
    a = [0.2] * 5
    I, J, K = combi_partition(a, 1e-6)
    _check_partition(a, 1e-6, I, J, K)


def test_combi_partition_preconditions():
    with pytest.raises(PreconditionError):
        combi_partition([0.5, 0.2, 0.2, 0.1], 1e-6)
    with pytest.raises(PreconditionError):
        combi_partition([0.3, 0.3, 0.4], 1e-6)
    with pytest.raises(PreconditionError):
        combi_partition([0.25] * 4, 0.1)


@given(st.integers(4, 8), st.integers(1, 50))
@settings(max_examples=40, deadline=None)
def test_combi_partition_never_invalid(k, seed):
    rng = np.random.default_rng(seed)
    eta = 1e-6
    # draw valid inputs: k parts summing to 1, all under 1/3 - 100 eta
    for _ in range(50):
        a = rng.dirichlet(np.ones(k))
        if all(0 < x < 1 / 3 - 100 * eta for x in a[:-1]) and 0 < a[-1] < 1 / 3 + 100 * eta:
            break
    else:
        return  # no valid draw; nothing to check
    I, J, K = combi_partition(list(a), eta)
    _check_partition(list(a), eta, I, J, K)
