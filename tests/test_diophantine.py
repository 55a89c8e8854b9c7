import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import k_n, n_star
from skewlab.diophantine import AnalysisParams, ContinuedFraction, cf_from_real, frac_phase
from skewlab.errors import InvalidInputError, PrecisionError
from skewlab.presets import COUNTEREXAMPLE_QUOTIENTS, PHASE_QUOTIENTS, PRIME_QUOTIENTS


def test_golden_ratio_fibonacci_denominators():
    cf = ContinuedFraction([1] * 6)
    assert [cf.q(k) for k in range(0, 7)] == [1, 1, 2, 3, 5, 8, 13]
    assert abs(float(cf.value) - 0.6180339887) < 1e-2


def test_quotients_222_by_hand_recursion():
    # oracle: q_{k+1} = 2 q_k + q_{k-1} unrolled by hand
    cf = ContinuedFraction([2, 2, 2, 2])
    assert [cf.q(k) for k in range(0, 5)] == [1, 2, 5, 12, 29]


def test_single_quotient():
    cf = ContinuedFraction([1])
    assert cf.p(1) == 1 and cf.q(1) == 1


def test_empty_and_nonpositive_quotients_rejected():
    with pytest.raises(InvalidInputError):
        ContinuedFraction([])
    with pytest.raises(InvalidInputError):
        ContinuedFraction([1, 0, 2])


def test_cf_from_real_sqrt2_minus_1():
    digits = math.isqrt(2 * 10**40) - 10**20  # sqrt(2)-1 cut to 20 digits
    cf = cf_from_real(f"0.{digits:020d}", 4)
    assert cf.quotients == [2, 2, 2, 2]


def test_cf_from_real_golden_string():
    cf = cf_from_real("0.61803398874989484820458683436563811772", 5)
    assert cf.quotients == [1, 1, 1, 1, 1]


def test_cf_from_real_precision_exhaustion_names_index():
    try:
        cf_from_real("0.61", 8)
    except PrecisionError as exc:
        assert exc.last_reliable is not None and exc.last_reliable < 8
    else:
        pytest.fail("expected precision exhaustion")


def test_cf_from_real_exponent_string_keeps_its_precision():
    # 6.18e-1 carries three digits, as 0.618 does, not the five after its point
    with pytest.raises(PrecisionError) as plain:
        cf_from_real("0.618", 12)
    with pytest.raises(PrecisionError) as sci:
        cf_from_real("6.18e-1", 12)
    assert sci.value.last_reliable == plain.value.last_reliable


def test_roundtrip_quotients_through_real():
    # a unit tail keeps the value off the edge where a_5 = 292 would end the expansion
    cf = ContinuedFraction([3, 7, 15, 1, 292] + [1] * 20)

    def digits(d):
        return f"0.{math.floor(cf.value * 10**d):0{d}d}"

    assert cf_from_real(digits(12), 5).quotients == [3, 7, 15, 1, 292]
    # ten digits support a shorter prefix
    with pytest.raises(PrecisionError) as exc:
        cf_from_real(digits(10), 5)
    assert exc.value.last_reliable >= 3


def test_dist_to_integers_examples():
    cf = ContinuedFraction([1] * 40)
    # oracle: |5 alpha - 3| with alpha the golden ratio conjugate
    golden = (math.sqrt(5) - 1) / 2
    assert abs(float(cf.dist_to_integers(5)) - abs(5 * golden - 3)) < 1e-9
    assert cf.dist_to_integers(0) == 0
    # at a denominator the distance sits in [1/(2 q_{k+1}), 1/q_{k+1}]
    for k in range(2, 10):
        d = cf.dist_to_integers(cf.q(k))
        assert Fraction(1, 2 * cf.q(k + 1)) <= d <= Fraction(1, cf.q(k + 1))


def test_fractional_parts_are_certified_or_refused():
    cf = ContinuedFraction([1] * 10)
    assert cf.frac01(0) == 0 and cf.frac_signed(0) == 0
    with pytest.raises(PrecisionError):
        cf.frac_signed(10**30)  # 10**30 * err is far beyond any distance in [0, 1)
    with pytest.raises(PrecisionError):
        cf.frac01(10**30)
    q = cf.q(cf.max_index())
    with pytest.raises(PrecisionError):
        cf.frac01(q)  # q * value is an integer, so frac(q alpha) may lie on either side of 0
    # a multiple whose fractional part is within n*err of 1/2: frac01 certifies it, but
    # its sign in (-1/2, 1/2] is undecided
    n = next(n for n in range(1, 10**4)
             if 0 < abs((n * cf.value) % 1 - Fraction(1, 2)) <= n * cf.err)
    assert cf.frac01(n) == (n * cf.value) % 1
    with pytest.raises(PrecisionError):
        cf.frac_signed(n)
    with pytest.raises(PrecisionError):
        cf.dist_to_integers(-q)


def _frac_oracle(cf, n, edges):
    """frac(n*value) as a Fraction, or None where |n| err reaches the nearest edge."""
    v = (n * cf.value) % 1
    d, u = min(abs(v - t) for t in edges), abs(n) * cf.err
    return None if n and u >= d else v


def _certified(f, n):
    try:
        return f(n)
    except PrecisionError:
        return None


def _sampled_indices(cf, rng):
    """0, +-1, +-Q and +-Q**2, every q_k and its neighbours, and random n of every size."""
    Q = cf.q(cf.max_index())
    ns = {0, 1, Q, Q * Q, Q - 1, Q + 1, 2 * Q, Q * Q // 3}
    for k in range(cf.max_index() + 1):
        ns.update(cf.q(k) * m + o for m in (1, 2, 3, 7) for o in (-1, 0, 1))
    for bits in range(1, 2 * Q.bit_length() + 2):
        ns.update(int.from_bytes(rng.bytes(bits // 8 + 1), "little") % (1 << bits)
                  for _ in range(4))
    ns.update(range(300))
    return sorted(ns | {-n for n in ns})


@pytest.mark.parametrize("quotients", [PHASE_QUOTIENTS, PRIME_QUOTIENTS,
                                       COUNTEREXAMPLE_QUOTIENTS, [1, 2, 3], [2], [1]],
                         ids=["phase", "prime", "counterexample", "1-2-3", "2", "1"])
def test_integer_frac_matches_fraction_oracle(quotients):
    # the Fraction formula the integer _frac replaced, on sampled n: same value, same refusal
    cf = ContinuedFraction(quotients)
    ns = _sampled_indices(cf, np.random.default_rng(len(quotients)))
    refused = undecided = 0
    for n in ns:
        want01 = _frac_oracle(cf, n, (0, 1))
        want = _frac_oracle(cf, n, (0, Fraction(1, 2), 1))
        assert _certified(cf.frac01, n) == want01, n
        got = _certified(cf.frac_signed, n)
        assert got == (None if want is None else want if want <= Fraction(1, 2) else want - 1), n
        refused += want is None
        undecided += want01 is not None and want is None
    assert 0 < refused < len(ns)  # both outcomes are sampled
    # and n that only the edge 1/2 refuses, but at value 1/1, where 0 refuses every n != 0
    assert undecided or cf.value == 1


@given(st.lists(st.integers(1, 9), min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_convergent_laws_random_quotients(quotients):
    cf = ContinuedFraction(quotients)
    cf.check_laws()
    for k in range(2, len(quotients)):
        d = abs(cf.convergent(k) - cf.value)
        if d > 0 and k + 1 <= cf.max_index():
            assert Fraction(1, 2 * cf.q(k + 1) * cf.q(k)) <= d + cf.err


def test_frac_phase_rounds_as_the_fraction_does():
    # float((Fraction(x) m + r) % 1), the Fraction form it replaced, bit for bit: x of
    # every size and sign, r from frac01 and frac_signed (so of either sign), and r = 0
    cf = ContinuedFraction(PRIME_QUOTIENTS)
    rng = np.random.default_rng(17)
    for _ in range(3000):
        x = float(rng.random() * 10.0 ** rng.integers(-30, 8) * rng.choice([-1, 1]))
        m = int(rng.integers(1, 10**6))
        k = int(rng.integers(0, 10**4))
        for r in (0, cf.frac01(m * k), cf.frac_signed(m) / 2, -cf.frac_signed(m) / 2):
            got = frac_phase(x, m, r)
            assert got == float((Fraction(x) * m + r) % 1), (x, m, r)  # 1.0 when just below 1
    assert frac_phase(np.float64(0.75), 3, 0) == 0.25 and frac_phase(-0.0, 5, 0) == 0.0


def test_analysis_params_tau_enforced():
    p = AnalysisParams(tau_prime=0.095)
    assert p.tau == min(0.095**2, 0.095 / 8) / 2
    with pytest.raises(TypeError):  # tau is derived, never passed
        AnalysisParams(tau_prime=0.095, tau=0.01)
    with pytest.raises(InvalidInputError):
        AnalysisParams(tau_prime=0.2)


class _HugeTau:
    tau = 1e9


def test_n_star_conventions():
    cf = ContinuedFraction([1] * 10)
    params = AnalysisParams(tau_prime=0.095)
    assert n_star(1, cf, params) == 1  # q_0 := 0 forces the k = 1 comparison
    assert n_star(5, cf, params) == 5  # tiny tau: every index qualifies
    # enormous tau: only the conventional k = 1 survives
    assert n_star(4, cf, _HugeTau()) == 1


def test_n_star_monotone():
    cf = ContinuedFraction([2, 1, 3, 1, 4, 1, 5, 1])
    params = AnalysisParams(tau_prime=0.099)
    values = [n_star(n, cf, params) for n in range(1, 8)]
    assert values == sorted(values)


def test_k_n_examples():
    cf = ContinuedFraction([1] * 10)
    params = AnalysisParams(tau_prime=0.095)
    # n* = n and a_{n+1} = 1: K_n = q_{n+1}/q_n
    assert k_n(4, cf, params) == Fraction(cf.q(5), cf.q(4))
    # huge tau forces n* = 1 with q_1 = 1: K_4 = q_5 = 8
    assert k_n(4, cf, _HugeTau()) == 8


def test_liouville_type_depth20():
    # strong jumps: q_{k+1} = a q_k + q_{k-1} with huge a's stays exact
    quo = [2, 5, 1, 40, 1, 1, 10**6, 1, 1, 1, 10**12] + [1] * 12
    cf = ContinuedFraction(quo)
    cf.check_laws()
    assert cf.max_index() >= 20
    assert cf.q(11) > 10**18
