"""The offset split of dd.frac01_int_mult against Dekker's products and exact rationals,
and the certified floor/frac kernel against Fraction arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from skewlab.dd import (MULMOD_LIMIT, _two_prod, _two_sum, dd_div_int, dd_from_fraction,
                        floor_frac_dd, frac01_int_mult, mulmod, round_certified)
from skewlab.errors import RangeError
from skewlab.presets import counterexample_stages, prime_pair
from skewlab.primes import primes_in

BLOCK = 1 << 21
# circular bound against both oracles; on the windows below the largest difference
# measured is 1.1e-16 (2**-53) from the Dekker oracle and 3.5e-18 from exact; the
# documented error is 2**-53 + 2**-62 + |n| 2**-106 against exact, and the Dekker
# oracle rounds by up to about 2**-53 itself
CIRCLE_BOUND = 2.0**-52


def _dekker_frac01_int_mult(n, a_hi, a_lo):
    """Oracle: frac(n * a) by Dekker's two-product and two two-sums on every element."""
    nf = n.astype(np.float64)
    hi, lo = _two_prod(nf, a_hi)
    lo = lo + nf * a_lo
    hi, lo = _two_sum(hi, lo)
    hi, lo = _two_sum(hi - np.floor(hi), lo)
    out = (hi - np.floor(hi)) + lo
    return out - np.floor(out)


def _exact(n, a_hi, a_lo):
    a = Fraction(a_hi) + Fraction(a_lo)
    return np.array([float(int(k) * a % 1) for k in n])


def _circular(u, v):
    d = np.abs(u - v)
    return np.minimum(d, 1.0 - d)


def _multipliers():
    """(m, a_hi, a_lo): alpha, then frac(m alpha) for each frequency m of the prime pair."""
    cf, g, _ = prime_pair()
    return [(1, *cf.value_dd())] + [(int(m), *dd_from_fraction(cf.frac01(int(m))))
                                    for m in g.freqs]


MULTIPLIERS = _multipliers()
MULTIPLIER_IDS = [f"m={m}" for m, _, _ in MULTIPLIERS]


@pytest.mark.parametrize("near", [10**5, 10**7, 10**9])
@pytest.mark.parametrize("m, a_hi, a_lo", MULTIPLIERS, ids=MULTIPLIER_IDS)
def test_split_matches_dekker_and_exact_on_windows(near, m, a_hi, a_lo):
    rng = np.random.default_rng(near + m)
    lo = (near // BLOCK + 1) * BLOCK - int(rng.integers(1, BLOCK // 2))
    ks = np.arange(lo, lo + BLOCK // 2, dtype=np.int64)  # crosses a block boundary
    ps = primes_in(lo, lo + BLOCK // 2)
    for n in (ks, ps):
        got = frac01_int_mult(n, a_hi, a_lo)
        assert np.all((got >= 0.0) & (got < 1.0))
        assert _circular(got, _dekker_frac01_int_mult(n, a_hi, a_lo)).max() <= CIRCLE_BOUND
        pick = rng.choice(len(n), 200, replace=False)
        assert _circular(got[pick], _exact(n[pick], a_hi, a_lo)).max() <= CIRCLE_BOUND


@pytest.mark.parametrize("m, a_hi, a_lo", MULTIPLIERS, ids=MULTIPLIER_IDS)
def test_block_edges_negative_and_unsorted(m, a_hi, a_lo):
    ks = [k * BLOCK + d for k in (1, 7, 477, 2**20) for d in (-1, 0, 1)]
    n = np.array(ks + [-k for k in ks] + [0, -1, 2**53 - 1, -(2**53) + 1], dtype=np.int64)
    n = np.random.default_rng(m).permutation(n)
    got = frac01_int_mult(n, a_hi, a_lo)
    assert np.all((got >= 0.0) & (got < 1.0))
    small = n[np.abs(n) < 2**40]  # where the Dekker oracle itself is good to 2**-53
    got_small = frac01_int_mult(small, a_hi, a_lo)
    assert _circular(got_small, _dekker_frac01_int_mult(small, a_hi, a_lo)).max() <= CIRCLE_BOUND
    assert _circular(got, _exact(n, a_hi, a_lo)).max() <= CIRCLE_BOUND


def test_each_element_depends_on_its_own_n_only():
    _, a_hi, a_lo = MULTIPLIERS[2]
    rng = np.random.default_rng(5)
    n = np.concatenate([rng.integers(10**9, 10**9 + 3 * BLOCK, 300),
                        rng.integers(-(2**52), 2**52, 100)])
    whole = frac01_int_mult(n, a_hi, a_lo)
    for i in range(len(n)):
        assert whole[i] == frac01_int_mult(n[i:i + 1], a_hi, a_lo)[0]


def test_empty_array():
    out = frac01_int_mult(np.array([], dtype=np.int64), 0.3, 0.0)
    assert out.shape == (0,) and out.dtype == np.float64


def test_block_value_on_the_cut_grid():
    # frac(2**21 a) = 0.5 - 2**-59: its high word sits on the 2**-32 grid, its low word is
    # negative, so the block value is C + D with C moved one grid step down
    a_hi, a_lo = 0.75 + 2.0**-22, -(2.0**-80)
    n = np.array([BLOCK + d for d in range(-3, 4)] + [3 * BLOCK, 5 * BLOCK + 7], dtype=np.int64)
    got = frac01_int_mult(n, a_hi, a_lo)
    assert np.all((got >= 0.0) & (got < 1.0))
    assert _circular(got, _exact(n, a_hi, a_lo)).max() <= CIRCLE_BOUND


# -- the certified floor/frac kernel -------------------------------------------------


def _stage_rhos():
    st = counterexample_stages(n_stages=3)
    return [st.cf.q(k) * st.cf.value - st.cf.p(k) for k in st.stage_k]


# the three stage offsets rho = q alpha - p, small rationals whose multiples hit integers,
# a negative one, and a dyadic one whose w = 1 value is a rounding tie
RHOS = _stage_rhos() + [Fraction(1, 3), Fraction(5, 2**40 + 1), Fraction(-2, 7),
                        Fraction(1, 2) + Fraction(1, 2**54), Fraction(1)]
RHO_IDS = ["stage1", "stage2", "stage3", "1/3", "5/(2^40+1)", "-2/7", "tie", "1"]
EDGE_W = [0, 1, -1, 3, 2**40 + 1, 2**53 - 1, -(2**53) + 1, 2**53, -(2**53), 2**62, -(2**63)]


def _kernel_inputs(rho, seed):
    rng = np.random.default_rng(seed)
    d = rho.denominator
    multiples = [d * int(t) for t in rng.integers(1, 2**52 // d + 1, 200)] if d < 2**52 else []
    return np.concatenate([rng.integers(1, 2**40, 1500), -rng.integers(1, 2**40, 300),
                           multiples, EDGE_W]).astype(np.int64)


@pytest.mark.parametrize("rho", RHOS, ids=RHO_IDS)
def test_floor_frac_dd_bound_holds(rho):
    w = _kernel_inputs(rho, rho.denominator % 1000)
    k, f_hi, f_lo, err = floor_frac_dd(w, rho)
    assert f_hi.dtype == np.float64 and k.dtype == np.int64
    flagged = []
    for i, wi in enumerate(w.tolist()):
        exact = wi * rho
        if abs(wi) >= 2**53 or exact.denominator == 1:
            assert err[i] == math.inf  # beyond float64 integers, or frac(w rho) = 0
            continue
        flagged.append(err[i] == math.inf)
        if err[i] < math.inf:
            assert k[i] == math.floor(exact)
            assert abs(Fraction(f_hi[i]) + Fraction(f_lo[i]) - (exact - k[i])) <= err[i]
    assert sum(flagged) <= 0.01 * len(flagged)


def test_floor_frac_dd_empty_and_out_of_range():
    k, f_hi, f_lo, err = floor_frac_dd(np.array([], dtype=np.int64), Fraction(1, 3))
    assert k.shape == f_hi.shape == f_lo.shape == err.shape == (0,)
    with pytest.raises(RangeError):
        floor_frac_dd(np.array([1], dtype=np.int64), Fraction(3, 2))


def test_round_certified_only_inside_the_rounding_interval():
    rng = np.random.default_rng(11)
    hi = rng.random(3000)
    lo = hi * 2.0**-53 * rng.uniform(-0.5, 0.5, hi.size)
    lo[:20] = np.spacing(hi[:20]) / 2  # exact ties
    err = np.spacing(hi) * rng.choice([2.0**-30, 2.0**-8, 0.1, 0.3], hi.size)
    out, ok = round_certified(hi, lo, err)
    assert not ok[:20].any() and ok.mean() > 0.3
    for h, l, e, o, good in zip(hi, lo, err, out, ok):
        v = Fraction(h) + Fraction(l)
        assert o == float(v)
        if good:  # every value within err rounds to out
            assert float(v - Fraction(e)) == o == float(v + Fraction(e))


def test_dd_div_int_bound():
    rng = np.random.default_rng(3)
    hi = rng.random(500)
    lo = hi * 2.0**-54 * rng.uniform(-1, 1, hi.size)
    for d in (3, 46, 17287, 117517491088, 2**53 - 1):
        q_hi, q_lo, q_err = dd_div_int(hi, lo, np.zeros(hi.size), d)
        for h, l, a, b, e in zip(hi, lo, q_hi, q_lo, q_err):
            assert abs(Fraction(a) + Fraction(b) - (Fraction(h) + Fraction(l)) / d) <= e


@pytest.mark.parametrize("m", [1, 2, 46, 17287, 117517491088, 2**40 + 15, MULMOD_LIMIT - 1])
def test_mulmod_matches_python_integers(m):
    rng = np.random.default_rng(m % 2**32)
    a = np.concatenate([rng.integers(0, m, 2000), [0, m - 1]]).astype(np.int64)
    for b in {0, 1, m - 1, int(rng.integers(0, m)), pow(3, 41, m)}:
        expect = [x * b % m for x in a.tolist()]
        assert mulmod(a, b, m).tolist() == expect
    with pytest.raises(RangeError):
        mulmod(a, 1, MULMOD_LIMIT)
    for b in (-1, -2**40):  # b < 0 once never returned: -1 >> 20 == -1, digits without end
        with pytest.raises(RangeError):
            mulmod(a, b, m)
