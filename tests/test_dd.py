"""The offset split of dd.frac01_int_mult against Dekker's products and exact rationals."""

from fractions import Fraction

import numpy as np
import pytest

from skewlab.dd import _two_prod, _two_sum, dd_from_fraction, frac01_int_mult
from skewlab.presets import prime_pair
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
