import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import (integer_phase_main_term_whole, oscillation_classify_per_q,
                    prime_phase_sum_whole, traced_peak)
from skewlab import poly_prime_sums
from skewlab.dd import e
from skewlab.errors import RangeError, ResourceError
from skewlab.poly_prime_sums import (ShiftedPoly, integer_phase_main_term, ms_gap,
                                     oscillation_classify, prime_phase_sum)
from skewlab.primes import (SEGMENT_SIZE, chebyshev_theta, default_source, euler_phi,
                            prime_windows, primes_in)


def test_zero_phase_r1_is_theta_window():
    N, H = 10**6, 10**4
    s = prime_phase_sum(N, H, 1, 0, ShiftedPoly(N, ()))
    ps = primes_in(N, N + H)
    assert s.real == pytest.approx(float(np.sum(np.log(ps.astype(float)))))
    assert abs(s.imag) < 1e-9


def test_adversarial_half_integer_slope():
    # g(n) = (n - N)/2 flips sign with parity; matches the direct signed sum
    N, H = 10**6, 10**4
    ps = primes_in(N, N + H)
    logp = np.log(ps.astype(float))
    with pytest.warns(UserWarning):
        s = prime_phase_sum(N, H, 1, 0, ShiftedPoly(N, (0.5,)))
    direct = float(np.sum(logp * np.where((ps - N) % 2, -1.0, 1.0)))
    assert s.real == pytest.approx(direct)


def test_degree_three_matches_direct_loop():
    N, H = 10**6, 3000
    g = ShiftedPoly(N, (1e-9, 1e-11, 1e-14))
    s = prime_phase_sum(N, H, 1, 0, g)
    direct = sum(cmath.exp(2j * math.pi * ((p - N) * 1e-9 + (p - N) ** 2 * 1e-11
                                           + (p - N) ** 3 * 1e-14)) * math.log(p)
                 for p in primes_in(N, N + H).tolist())
    assert abs(s - direct) < 1e-9


def _phase_errors(base, gammas, xs):
    """Circular distance of ShiftedPoly.phase01 from the exact phase at base + xs."""
    from fractions import Fraction

    got = ShiftedPoly(base, gammas).phase01(base + np.asarray(xs, dtype=np.int64))
    out = []
    for x, v in zip(xs, got.tolist()):
        d = abs(v - float(sum(Fraction(c) * x ** (i + 1) for i, c in enumerate(gammas)) % 1))
        out.append(min(d, 1 - d))
    return out


def test_phase_reduction_against_exact_fractions():
    assert max(_phase_errors(10**7, (0.123456789, 2.5e-9, 1.5e-16), [77_777_777])) < 1e-12
    # degrees 1-4 with phases up to ~1e6 turns; gamma_1 of either sign,
    # gamma_i >= 0 for i >= 2 (see the negative-cubic case below)
    rng = np.random.default_rng(11)
    for degree in range(1, 5):
        for _ in range(3):
            gammas = (float(rng.uniform(-0.5, 0.5)),) + tuple(
                float(rng.uniform(0, 1)) * 10.0 ** (-6 * i) for i in range(1, degree))
            xs = rng.integers(0, 10**6, 25).tolist()
            assert max(_phase_errors(10**8, gammas, xs)) < 1e-12, gammas


@pytest.mark.xfail(strict=True, reason="a negative Horner value in (-1, 0) is folded "
                   "with a rounding error that later steps multiply by n - N")
def test_phase_reduction_negative_cubic():
    errs = _phase_errors(10**9, (0.3, 1e-7, -1.2e-11), [12_345, 50_000, 99_999])
    assert max(errs) < 1e-12


def test_main_term_examples():
    N, H, r = 10**5, 500, 6
    m = integer_phase_main_term(N, H, r, ShiftedPoly(N, ()))
    assert m == pytest.approx((H + 1) / euler_phi(r))
    # pure half-integer slope: bounded oscillating sum
    m2 = integer_phase_main_term(N, H, 1, ShiftedPoly(N, (0.5,)))
    assert abs(m2) <= 1.0 + 1e-12
    # quadratic phase against a direct evaluation
    g = ShiftedPoly(N, (0.0, 1 / 1024))
    direct = sum(cmath.exp(2j * math.pi * ((n - N) ** 2 / 1024))
                 for n in range(N, N + H + 1))
    assert integer_phase_main_term(N, H, 1, g) == pytest.approx(direct, abs=1e-9)


def test_main_term_refuses_beyond_its_budget():
    # H above MS_SUM_MAX_H: at once, where the chunk loop ran for ages; a window beyond
    # int64 is a RangeError, not numpy's OverflowError
    g = ShiftedPoly(1000, (0.1,))
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match="main term budget is H <= 100000000"):
        integer_phase_main_term(1000, 2**64, 1, g)
    with pytest.raises(ResourceError, match="main term budget"):
        integer_phase_main_term(1000, poly_prime_sums.MS_SUM_MAX_H + 1, 1, g)
    with pytest.raises(ResourceError, match="main term budget"):  # before the prime sum
        ms_gap(10**6, poly_prime_sums.MS_SUM_MAX_H + 1, 1, 0, g, 0.05)
    assert time.perf_counter() - t0 < 1
    with pytest.raises(RangeError, match="leaves int64"):
        integer_phase_main_term(2**64, 100, 1, g)


def test_a_huge_r_keeps_the_sum_or_is_refused_before_it(monkeypatch):
    # p <= N + H < r: p mod r = p, where ps % r overflowed int64 for r >= 2**63
    N, H = 100, 50
    g = ShiftedPoly(N, (0.0, 0.001))  # in the guaranteed regime for every r
    for a in (101, 103, 10**29 + 101):
        want = prime_phase_sum(N, H, N + H + 1, a, g) if a <= N + H else 0j
        assert prime_phase_sum(N, H, 10**30, a, g) == want
    # ms_gap needs phi(r): beyond the factorization budget, refused before any sum
    monkeypatch.setattr(poly_prime_sums, "prime_phase_sum", None)
    for r in (10**13, 10**30):
        with pytest.raises(ResourceError, match="factorization budget"):
            ms_gap(N, H, r, 1, g, 0.05)


def test_streamed_sums_match_whole_array():
    # the main term over three chunks and a few integers, the prime sum over three
    # prime windows, against one whole-array sum each: measured 2.7e-15 and 1.6e-15
    N, g = 10**7, ShiftedPoly(10**7, (1e-5, 1e-13))  # in regime up to r = 10
    H = 3 * poly_prime_sums.PHASE_CHUNK + 5
    whole = complex(np.sum(e(g.phase01(np.arange(N, N + H + 1, dtype=np.int64)))))
    assert integer_phase_main_term(N, H, 1, g) == pytest.approx(whole, rel=1e-13)
    H = 4 * SEGMENT_SIZE + 5
    for r, a in ((1, 0), (10, 3)):
        ps = primes_in(N, N + H)
        ps = ps[ps % r == a % r]
        whole = complex(np.sum(e(g.phase01(ps)) * np.log(ps.astype(float))))
        assert prime_phase_sum(N, H, r, a, g) == pytest.approx(whole, rel=1e-13)


def test_ms_gap_peak_does_not_grow_with_H():
    N, g = 10**8, ShiftedPoly(10**8, (1e-3,))
    default_source().primes_in(2, 10**4)  # the sieve's base-prime table, before tracing
    peaks = [traced_peak(ms_gap, N, H, 1, 0, g, 0.05)
             for H in (2 * SEGMENT_SIZE, 8 * SEGMENT_SIZE)]
    # holding every phase took 40 bytes per integer: 6 SEGMENT_SIZE more H would add 250 MB
    assert peaks[1] < peaks[0] + (1 << 20)
    assert peaks[1] < 32 << 20


# in the guaranteed regime for r <= 10 and H <= 2.2e6
CUBIC = (4.1e-5, 3.1e-7, 1.9e-13)


@pytest.mark.parametrize("N", [10**8, 10**9])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_phase_sums_keep_the_bits_of_one_expression(N, degree):
    g = ShiftedPoly(N, CUBIC[:degree])
    chunk, piece = poly_prime_sums.PHASE_CHUNK, poly_prime_sums.PHASE_PIECE
    # a full chunk, then a piece and two integers: the second chunk crosses a piece edge
    H = chunk + piece + 1
    assert integer_phase_main_term(N, H, 1, g) == integer_phase_main_term_whole(N, H, 1, g)
    assert integer_phase_main_term(N, 7, 3, g) == integer_phase_main_term_whole(N, 7, 3, g)
    # two prime windows of over 3 pieces of primes each, the last one short
    H = 2 * SEGMENT_SIZE + 10**5
    for r, a in ((1, 0), (10, 3)):
        assert prime_phase_sum(N, H, r, a, g) == prime_phase_sum_whole(N, H, r, a, g)


def test_prime_window_logs_equal_those_of_a_float_copy():
    src = default_source()
    for N, start in ((4 * SEGMENT_SIZE, 2), (10**9 + 10**5, 10**9),
                     (1_997_000_000, 1_996_000_000)):
        for *_, ps, logp in prime_windows(src, N, start):
            assert np.array_equal(logp, np.log(ps.astype(np.float64)))


def test_phase_sum_peaks_are_set_by_the_piece():
    default_source().primes_in(2, 10**5)  # the sieve's base-prime table, before tracing
    g = ShiftedPoly(10**9, CUBIC)
    # measured 5.5 MiB: the chunk's integers and terms, and one piece's Horner
    # temporaries; the whole chunk's temporaries took 20.0 MiB
    assert traced_peak(integer_phase_main_term, 10**9, poly_prime_sums.PHASE_CHUNK, 1, g) < 8 << 20
    # measured 4.0 MiB: a window of primes, its logs and terms, and one piece's
    # temporaries; a whole window's took 7.7 MiB
    assert traced_peak(prime_phase_sum, 10**9, 10**6, 1, 0, g) < 6 << 20


def test_ms_gap_zero_phase_is_window_pnt_defect():
    N, H = 10**6, 10**4
    gap, budget = ms_gap(N, H, 1, 0, ShiftedPoly(N, ()), 0.05)
    defect = abs((chebyshev_theta(N + H) - chebyshev_theta(N)) - (H + 1))
    assert gap == pytest.approx(defect, rel=1e-9)


def test_ms_gap_in_regime_small():
    N = 10**7
    H = int(N**0.7)
    g = ShiftedPoly(N, (1e-9, 1e-12 / H, 1e-13 / H**2, 1e-14 / H**3))
    gap, budget = ms_gap(N, H, 1, 0, g, 0.05)
    assert gap < budget


def test_oscillation_classify_examples():
    N, H = 10**6, 10**4
    assert oscillation_classify(ShiftedPoly(N, ()), H, N, 2.0) == ("non-oscillatory", 1)
    assert oscillation_classify(ShiftedPoly(N, (0.5,)), H, N, 2.0) == ("non-oscillatory", 2)
    # a quotient-generic irrational with big H: no low-height rational is close
    cls, _ = oscillation_classify(ShiftedPoly(N, (0.6180339887498949,)), 10**6, N, 2.0)
    assert cls == "oscillatory"


def test_classification_refuses_beyond_its_q_budget(monkeypatch, capsys):
    from skewlab.cli import main

    # at B = 8, (log 1e9)^8 ~ 3.4e10 values of q; sqrt(2) - 1 finds its witness at 13,860
    N, H, root2 = 10**9, 10**5, 0.41421356237309503
    g = ShiftedPoly(N, (0.0, 0.0, root2))
    assert oscillation_classify(g, H, N, 8.0) == ("non-oscillatory", 13860)
    monkeypatch.setattr(poly_prime_sums, "CLASSIFY_MAX_Q", 100)
    with pytest.raises(ResourceError, match="classification budget is q <= 100"):
        oscillation_classify(g, H, N, 8.0)
    # a witness inside the budget still returns
    assert oscillation_classify(ShiftedPoly(N, (0.0, 0.0, 1 / 7)), H, N, 8.0) == (
        "non-oscillatory", 7)

    def no_sum(*args):
        raise AssertionError("ms_gap ran before the refusal")

    monkeypatch.setattr(poly_prime_sums, "ms_gap", no_sum)
    args = ["ms-sum", "--N", "1e9", "--H", "1e5", "--coeffs", f"0,0,{root2}", "--B", "8"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: classification budget") and len(err.splitlines()) == 1


def _both(g, H, N, B):
    """(block scan, per-q oracle): each a result or the text of its ResourceError."""
    out = []
    for classify in (oscillation_classify, oscillation_classify_per_q):
        try:
            out.append(classify(g, H, N, B))
        except ResourceError as exc:
            out.append(str(exc))
    return out


def test_block_scan_matches_the_per_q_oracle(monkeypatch):
    # coefficients near a/b (witness b or a multiple of it), generic ones (oscillatory)
    # and the sqrt(2) - 1 cubic, whose witness 13,860 lies inside the first block
    rng = np.random.default_rng(21)
    N, H, root2 = 10**6, 10**4, 0.41421356237309503
    cases = [ShiftedPoly(N, ()), ShiftedPoly(10**9, (0.0, 0.0, root2))]
    for _ in range(40):
        deg = int(rng.integers(1, 4))
        b = rng.integers(1, 150, deg)
        near = rng.integers(0, b) / b + rng.normal(0, 1e-6, deg) * (rng.random(deg) < 0.5)
        cases.append(ShiftedPoly(N, tuple((near if rng.random() < 0.7 else rng.random(deg))
                                          .tolist())))
    results = set()
    for g in cases:
        HH, B = (10**5, 8.0) if g.base == 10**9 else (H, 2.0)
        fast, oracle = _both(g, HH, g.base, B)
        assert fast == oracle, g
        results.add(fast[0])
    assert results == {"non-oscillatory", "oscillatory"}
    # a witness at each side of a block edge: 1/7 passes first at q = 7
    g = ShiftedPoly(N, (1 / 7,))
    for block, first in ((7, 7), (6, 7), (8, 7)):
        monkeypatch.setattr(poly_prime_sums, "CLASSIFY_BLOCK", block)
        assert _both(g, H, N, 2.0) == [("non-oscillatory", first)] * 2
    # the budget's refusal, and a witness just inside it
    monkeypatch.setattr(poly_prime_sums, "CLASSIFY_BLOCK", 64)
    monkeypatch.setattr(poly_prime_sums, "CLASSIFY_MAX_Q", 100)
    refusal, _ = _both(cases[1], 10**5, 10**9, 8.0)
    assert refusal.startswith("classification budget is q <= 100")
    assert _both(cases[1], 10**5, 10**9, 8.0) == [refusal] * 2
    # (log N)^2 ~ 190.9 and H = 1e5: no q below b passes for 1/b, and 101 is beyond budget
    assert _both(ShiftedPoly(N, (1 / 97,)), 10**5, N, 2.0) == [("non-oscillatory", 97)] * 2
    assert _both(ShiftedPoly(N, (1 / 101,)), 10**5, N, 2.0)[0].startswith(
        "classification budget is q <= 100")


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_classification_shift_invariance(s1, s2):
    # adding integers to any coefficient leaves the class and witness unchanged
    N, H = 10**6, 10**5
    base = ShiftedPoly(N, (0.37, 1.7e-7))
    shifted = ShiftedPoly(N, (0.37 + s1, 1.7e-7 + s2))
    assert oscillation_classify(base, H, N, 2.0) == oscillation_classify(shifted, H, N, 2.0)


def test_oscillatory_main_term_small():
    # for in-regime oscillatory g, the normalized main term is small
    rng = np.random.default_rng(3)
    N, H = 10**7, 10**5
    hits = 0
    for _ in range(5):
        g = ShiftedPoly(N, (rng.random(), rng.random() / H))
        cls, _ = oscillation_classify(g, H, N, 2.0)
        if cls == "oscillatory":
            hits += 1
            m = integer_phase_main_term(N, H, 1, g)
            assert abs(m) / (H / 1) < 0.1
    assert hits > 0
