import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import (build_sieve_weights, coprimality_decomposition_error,
                    coprimality_weight_sum, majorant_window_average, mobius)
from skewlab import primes
from skewlab.errors import InvalidInputError, RangeError, ResourceError
from skewlab.primes import (PrimeSource, chebyshev_theta, divisor_count_k, euler_phi,
                            factorize, mobius_upto, primes_in)


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


def _window_oracle(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] for lo >= 2: every n in the window struck by the dense
    sieve's primes <= sqrt(hi), from their first multiple >= max(p^2, lo)."""
    is_prime = np.ones(hi - lo + 1, dtype=bool)
    for p in simple_sieve(math.isqrt(hi)).tolist():
        is_prime[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return lo + np.flatnonzero(is_prime).astype(np.int64)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_sieve_matches_trial_division_to_1e5():
    got = set(primes_in(1, 100000).tolist())
    for n in range(1, 100001, 97):  # sampled; full set checked via simple sieve below
        assert (n in got) == _trial_division_is_prime(n)
    assert np.array_equal(primes_in(1, 100000), simple_sieve(100000))


def test_prime_count_1e6():
    assert len(primes_in(1, 10**6)) == 78498


def test_primes_in_examples():
    assert primes_in(1, 10).tolist() == [2, 3, 5, 7]
    assert primes_in(90, 100).tolist() == [97]
    assert primes_in(0, 1).tolist() == []


def test_range_beyond_limit():
    src = PrimeSource(limit=1000)
    with pytest.raises(RangeError):
        src.primes_in(1, 2000)
    assert np.array_equal(src.primes_in(1, 1000), simple_sieve(1000))
    with pytest.raises(RangeError):
        src.primes_in(1, 1001)


def _edge_ranges():
    """(lo, hi) with lo <= 2, even and odd lo, hi = p^2 - 1, p^2, p^2 + 1, and empty ranges."""
    for lo in range(-3, 40):
        for hi in range(-3, 90):
            yield lo, hi
    for p in (3, 5, 7, 11, 13, 31, 97, 101, 997):
        for d in (-1, 0, 1):
            for lo in (0, 2, 3, p * p - 10, p * p - 9, p * p + d):
                yield lo, p * p + d


@pytest.mark.parametrize("segment", [None, 16])
def test_primes_in_matches_dense_oracle(segment, monkeypatch):
    if segment is not None:
        monkeypatch.setattr(primes, "SEGMENT_SIZE", segment)
    src = PrimeSource()
    cases = list(_edge_ranges())
    span = 2 * primes.SEGMENT_SIZE  # segment k of [lo, hi] starts at (max(lo, 3) | 1) + k * span
    for lo in (2, 3, 4, 97, 98):
        for k in (1, 2):
            for d in (-2, -1, 0, 1, 2):
                cases += [(lo, lo + k * span + d), (lo + d, lo + k * span)]
    if segment is not None:  # 16-odd segments: keep each range to about a thousand of them
        cases = [(lo, hi) for lo, hi in cases if hi - lo <= 40000]
    dense = simple_sieve(max(hi for _, hi in cases))
    for lo, hi in cases:
        got = src.primes_in(lo, hi)
        want = dense[(dense >= lo) & (dense <= hi)]
        assert got.dtype == np.int64 and np.array_equal(got, want), (lo, hi)


def test_primes_in_near_the_limit_matches_window_oracle():
    rng = np.random.default_rng(3)
    src = PrimeSource()
    top = primes.DEFAULT_LIMIT
    p = int(simple_sieve(math.isqrt(top))[-1])  # the largest base prime
    cases = [(top - 5000, top), (top - 1, top), (top, top), (p * p - 3, p * p + 3)]
    for _ in range(8):
        hi = top - int(rng.integers(0, 10**6))
        cases.append((hi - int(rng.integers(0, 20000)), hi))
    for lo, hi in cases:
        got = src.primes_in(lo, hi)
        assert got.dtype == np.int64 and np.array_equal(got, _window_oracle(lo, hi)), (lo, hi)


@pytest.mark.parametrize("n", [999983**2, 2**39, 999979 * 1000003, 2 * 999983, 999983])
def test_factorize_large_equals_trial_division(n):
    want, m, d = [], n, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            want.append((d, e))
        d += 1
    if m > 1:
        want.append((m, 1))
    assert factorize(n) == want


def test_factorize_budget():
    assert factorize(10**12) == [(2, 12), (5, 12)]
    with pytest.raises(ResourceError):
        factorize(2**40)  # beyond n <= 1e12


def test_segment_boundaries(monkeypatch):
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 16)
    src = PrimeSource()
    assert np.array_equal(src.primes_in(1, 2000), simple_sieve(2000))
    assert np.array_equal(src.primes_in(97, 1009), simple_sieve(1009)[simple_sieve(1009) >= 97])


def test_chebyshev_theta_small():
    # oracle: four-term sum
    assert abs(chebyshev_theta(10) - sum(math.log(p) for p in (2, 3, 5, 7))) < 1e-12
    assert chebyshev_theta(1) == 0.0


def test_chebyshev_theta_pnt_sanity():
    N = 10**7
    assert abs(chebyshev_theta(N) - N) / N < 0.003


def test_arithmetic_function_examples():
    assert mobius(12) == 0 and mobius(6) == 1
    # oracle: ordered triples with product 4: (1,1,4)x3, (1,2,2)x3
    assert divisor_count_k(3, 4) == 6
    with pytest.raises(InvalidInputError):
        mobius(0)


@given(st.integers(1, 5000))
@settings(max_examples=100, deadline=None)
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        assert _trial_division_is_prime(p)
        prod *= p**e
    assert prod == n


@given(st.integers(1, 2000), st.integers(1, 2000))
@settings(max_examples=60, deadline=None)
def test_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_coprime_mask_matches_remainders():
    rng = np.random.default_rng(5)
    small = simple_sieve(400)
    for _ in range(100):
        lo = int(rng.integers(0, 10**6))
        hi = lo + int(rng.integers(-1, 500))  # hi = lo - 1: the empty window
        ps = rng.choice(small, size=int(rng.integers(0, 6)), replace=False).tolist()
        n = np.arange(lo, hi + 1)
        want = np.ones(len(n), dtype=bool)
        for p in ps:
            want &= n % p != 0
        got = primes.coprime_mask(lo, hi, ps)
        assert got.dtype == bool and np.array_equal(got, want), (lo, hi, ps)


def test_mobius_upto_agrees_pointwise():
    mu = mobius_upto(3000)
    for n in range(1, 3001):
        assert int(mu[n]) == mobius(n)
    with pytest.raises(InvalidInputError):
        mobius_upto(-1)
    with pytest.raises(ResourceError):  # numpy's "Maximum allowed dimension exceeded" before
        mobius_upto(2**64)


def test_divisor_count_k_brute():
    # oracle: enumerate ordered k-tuples for small n
    def brute(k, n):
        if k == 1:
            return 1
        return sum(brute(k - 1, n // d) for d in range(1, n + 1) if n % d == 0)

    for n in (1, 4, 12, 30):
        for k in (1, 2, 3):
            assert divisor_count_k(k, n) == brute(k, n)


def test_majorant_pointwise_and_average():
    w = build_sieve_weights("prime-majorant", z=10**4)
    assert all(abs(v) <= 1 for v in w.lambdas.values())
    ps = primes_in(w.sift_bound + 1, 100000)
    assert all(w.divisor_sum(int(p)) >= 1 for p in ps)
    # Bonferroni: the divisor sum never goes negative
    assert all(w.divisor_sum(n) >= 0 for n in range(1, 5000))
    from lemmas import MAJORANT_WINDOW_C

    assert majorant_window_average(w, 10**6, 2 * 10**8 + 1) <= MAJORANT_WINDOW_C
    # the recipe that froze the constant (measured maximum 3.07)
    for z in (64, 1000, 10**4):
        wz = build_sieve_weights("prime-majorant", z=z)
        for x in (1, 10**6):
            for mult in (2, 20):
                assert majorant_window_average(wz, x, z * z * mult) <= MAJORANT_WINDOW_C


def test_coprimality_weights():
    q = 2 * 3 * 5 * 7 * 11 * 13
    w = build_sieve_weights("coprimality", q=q, d=q, A=3)
    # trivial-only weights when no admissible prime divides d
    big_prime_d = build_sieve_weights("coprimality", q=10007, d=10007, A=1.0)
    assert big_prime_d.lambdas == {1: 1}
    # decomposition exact whenever both error indicators vanish
    samples = [w,
               build_sieve_weights("coprimality", q=510510, d=2310, A=2),
               build_sieve_weights("coprimality", q=96577 * 4, d=4, A=5)]
    for weights in samples:
        for n in range(1, 10**4 + 1):
            lhs, rhs, i1, i2 = coprimality_decomposition_error(n, weights)
            if not i1 and not i2:
                assert lhs == rhs, (n, weights.q, weights.d)
    from lemmas import SIEVE2_ERROR_C

    # the recipe that froze the constant (measured maximum 2.18)
    for q in (210, 30030, 510510):
        for A in (2, 3):
            wq = build_sieve_weights("coprimality", q=q, d=q, A=A)
            err = abs(float(coprimality_weight_sum(wq)) - euler_phi(q) / q)
            assert err * math.log(q) ** (A - 1) <= SIEVE2_ERROR_C


def test_sieve_weight_preconditions():
    with pytest.raises(InvalidInputError):
        build_sieve_weights("coprimality", q=100, d=7, A=2)  # d must divide q
    with pytest.raises(RangeError):
        build_sieve_weights("prime-majorant", z=2)
