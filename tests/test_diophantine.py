import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.diophantine import (AnalysisParams, ContinuedFraction, cf_from_quotients,
                                 cf_from_real, k_n, n_star)
from skewlab.errors import InvalidInputError, PrecisionError


def test_golden_ratio_fibonacci_denominators():
    cf = cf_from_quotients([1] * 6, 6)
    assert [cf.q(k) for k in range(0, 7)] == [1, 1, 2, 3, 5, 8, 13]
    assert abs(float(cf.value) - 0.6180339887) < 1e-2


def test_quotients_222_by_hand_recursion():
    # oracle: q_{k+1} = 2 q_k + q_{k-1} unrolled by hand
    cf = cf_from_quotients([2, 2, 2, 2], 4)
    assert [cf.q(k) for k in range(0, 5)] == [1, 2, 5, 12, 29]


def test_single_quotient():
    cf = cf_from_quotients([1], 1)
    assert cf.p(1) == 1 and cf.q(1) == 1


def test_empty_and_nonpositive_quotients_rejected():
    with pytest.raises(InvalidInputError):
        cf_from_quotients([])
    with pytest.raises(InvalidInputError):
        cf_from_quotients([1, 0, 2])


def test_cf_from_real_sqrt2_minus_1():
    x = Fraction(math.isqrt(2 * 10**60), 10**30) - 1  # ~sqrt(2)-1 to 30 digits
    cf = cf_from_real(x + Fraction(1, 10**25), 4, uncertainty=Fraction(1, 10**20))
    assert cf.quotients == [2, 2, 2, 2]


def test_cf_from_real_golden_string():
    cf = cf_from_real("0.61803398874989484820458683436563811772", 5)
    assert cf.quotients == [1, 1, 1, 1, 1]


def test_cf_from_real_rational_terminates():
    with pytest.raises(PrecisionError):
        cf_from_real(Fraction(1, 2), 4)


def test_cf_from_real_precision_exhaustion_names_index():
    try:
        cf_from_real("0.61", 8)
    except PrecisionError as exc:
        assert exc.last_reliable is not None and exc.last_reliable < 8
    else:
        pytest.fail("expected precision exhaustion")


def test_roundtrip_quotients_through_real():
    cf = cf_from_quotients([3, 7, 15, 1, 292], 5)
    # exact value: the expansion recovers the full prefix and stops there
    back = cf_from_real(cf.value, 5)
    assert back.quotients[:5] == [3, 7, 15, 1, 292]
    # with the tracked uncertainty the budget supports a shorter prefix
    with pytest.raises(PrecisionError) as exc:
        cf_from_real(cf.value, 5, uncertainty=cf.err)
    assert exc.value.last_reliable >= 3


def test_dist_to_integers_examples():
    cf = cf_from_quotients([1] * 40)
    # oracle: |5 alpha - 3| with alpha the golden ratio conjugate
    golden = (math.sqrt(5) - 1) / 2
    assert abs(float(cf.dist_to_integers(5)) - abs(5 * golden - 3)) < 1e-9
    assert cf.dist_to_integers(0) == 0
    # at a denominator the distance sits in [1/(2 q_{k+1}), 1/q_{k+1}]
    for k in range(2, 10):
        d = cf.dist_to_integers(cf.q(k))
        assert Fraction(1, 2 * cf.q(k + 1)) <= d <= Fraction(1, cf.q(k + 1))


@given(st.lists(st.integers(1, 9), min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_convergent_laws_random_quotients(quotients):
    cf = cf_from_quotients(quotients)
    cf.check_laws()
    for k in range(2, len(quotients)):
        d = abs(cf.convergent(k) - cf.value)
        if d > 0 and k + 1 <= cf.max_index():
            assert Fraction(1, 2 * cf.q(k + 1) * cf.q(k)) <= d + cf.err


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
    cf = cf_from_quotients([1] * 10)
    params = AnalysisParams(tau_prime=0.095)
    assert n_star(1, cf, params) == 1  # q_0 := 0 forces the k = 1 comparison
    assert n_star(5, cf, params) == 5  # tiny tau: every index qualifies
    # enormous tau: only the conventional k = 1 survives
    assert n_star(4, cf, _HugeTau()) == 1


def test_n_star_monotone():
    cf = cf_from_quotients([2, 1, 3, 1, 4, 1, 5, 1])
    params = AnalysisParams(tau_prime=0.099)
    values = [n_star(n, cf, params) for n in range(1, 8)]
    assert values == sorted(values)


def test_k_n_examples():
    cf = cf_from_quotients([1] * 10)
    params = AnalysisParams(tau_prime=0.095)
    # n* = n and a_{n+1} = 1: K_n = q_{n+1}/q_n
    assert k_n(4, cf, params) == Fraction(cf.q(5), cf.q(4))
    # huge tau forces n* = 1 with q_1 = 1: K_4 = q_5 = 8
    assert k_n(4, cf, _HugeTau()) == 8


def test_liouville_type_depth20():
    # strong jumps: q_{k+1} = a q_k + q_{k-1} with huge a's stays exact
    quo = [2, 5, 1, 40, 1, 1, 10**6, 1, 1, 1, 10**12] + [1] * 12
    cf = cf_from_quotients(quo)
    cf.check_laws()
    assert cf.max_index() >= 20
    assert cf.q(11) > 10**18
