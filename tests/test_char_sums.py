import math

import numpy as np
import pytest

from skewlab import char_sums
from skewlab.char_sums import (BetaPolicy, build_characters, gauss_sum,
                               huxley_stat_progressions, huxley_stat_windows,
                               progression_char_stat, residue_progression_gap,
                               twisted_residue_window, window_coprime_count,
                               windowed_twisted_stat)
from skewlab.errors import IntegrityError, PreconditionError, ResourceError
from skewlab.primes import default_source, euler_phi, primes_in
from skewlab.skew_dynamics import e


def test_group_sizes_and_flags():
    tab1 = build_characters(1)
    assert len(list(tab1)) == 1 and list(tab1)[0].is_principal()
    tab5 = build_characters(5)
    chars = list(tab5)
    assert len(chars) == 4
    assert sum(c.is_principal() for c in chars) == 1
    assert sum(c.is_primitive() for c in chars) == 3
    tab8 = build_characters(8)
    assert sorted(c.order() for c in tab8) == [1, 2, 2, 2]  # C2 x C2


def test_orthogonality_small_moduli():
    for q in (2, 3, 4, 5, 8, 9, 12, 16, 24, 45, 100, 200):
        assert build_characters(q).orthogonality_defect() < 1e-9, q


def test_multiplicativity_exhaustive():
    for q in range(2, 201, 13):
        tab = build_characters(q)
        for chi in tab:
            vals = chi.values()
            a = np.arange(q)
            units = np.gcd(a, q) == 1
            ua = a[units]
            outer = vals[np.outer(ua, ua) % q]
            assert np.max(np.abs(outer - np.outer(vals[ua], vals[ua]))) < 1e-10


def _exp_row_oracle(chi):
    """The value row as one complex exp per entry, masked to 0 on non-units."""
    tab = chi.table
    q, L = tab.q, tab.exponent
    a = np.arange(q) if q > 1 else np.zeros(1, dtype=np.int64)
    row = np.zeros(len(a), dtype=np.int64)
    for k, comp in zip(chi.ks, tab.components):
        D = comp.dlog[a % comp.modulus]
        row = (row + (k * (L // comp.order)) * np.where(D >= 0, D, 0)) % L
    out = np.exp(2j * np.pi * (row.astype(np.float64) / L))
    out[np.gcd(a, q) != 1] = 0.0
    return out


def test_value_rows_match_exp_oracle():
    for q in (1, 2, 4, 8, 12, 16, 45, 97, 243, 1920, 4999):
        b = np.arange(q)
        for chi in build_characters(q):
            vals = chi.values()
            oracle = _exp_row_oracle(chi)
            assert np.array_equal(vals, oracle), (q, chi.ks)
            if chi.is_primitive() and q < 1000:
                # alternate x so that consecutive calls never share a twist
                for x in (1, q + 3):
                    want = complex(np.sum(oracle * e(b * (x % q) / q)))
                    assert gauss_sum(chi, x) == want, (q, chi.ks, x)


def test_conductor_against_structure():
    # mod 12 = 4 * 3: nontrivial characters have conductors in {3, 4, 12}
    tab = build_characters(12)
    conds = sorted(c.conductor() for c in tab)
    assert conds == [1, 3, 4, 12]
    # mod p prime: conductor is 1 or p
    tab = build_characters(13)
    assert {c.conductor() for c in tab} == {1, 13}


def test_gauss_sum_modulus():
    for e in (3, 5, 7, 11):
        for chi in build_characters(e):
            if chi.is_primitive():
                assert abs(abs(gauss_sum(chi, 1)) - math.sqrt(e)) < 1e-9
    chi = next(c for c in build_characters(7) if c.is_primitive())
    assert abs(gauss_sum(chi, 0)) < 1e-12  # character sums to zero
    chi0 = build_characters(8).principal()
    with pytest.raises(PreconditionError):
        gauss_sum(chi0, 1)


def test_gauss_sum_bound_violation_is_integrity_error():
    class Inflated:  # a "primitive character" mod 5 whose values break |G| <= sqrt(5)
        q = 5

        def is_primitive(self):
            return True

        def values(self):
            return np.full(5, 10.0 + 0j)

    with pytest.raises(IntegrityError):
        gauss_sum(Inflated(), 0)


def test_progression_stat_full_period_vanishes():
    for q in (13, 24, 101):
        for chi in build_characters(q):
            if not chi.is_principal():
                assert progression_char_stat(q, 1, chi) < 1e-9


def test_progression_stat_brute_force():
    def brute(q, r, chi):
        vals = chi.values()
        return sum(abs(sum(vals[a] for a in range(q) if a % r == v % r))
                   for v in range(1, r + 1))

    for q, r in ((13, 2), (101, 5), (24, 7), (31, 30)):
        for chi in list(build_characters(q))[1:5]:
            if chi.is_principal():
                continue
            assert progression_char_stat(q, r, chi) == pytest.approx(brute(q, r, chi))


def test_progression_stat_preconditions():
    tab = build_characters(10)
    chi = next(c for c in tab if not c.is_principal())
    with pytest.raises(PreconditionError):
        progression_char_stat(10, 5, chi)
    with pytest.raises(PreconditionError):
        progression_char_stat(10, 3, tab.principal())


def test_windowed_twisted_stat_calibrated_bound():
    from skewlab.calibration import TWISTED_WINDOW_C

    q = 997
    Hp = max(2, int(q**0.3))
    chi = next(c for c in build_characters(q) if not c.is_principal())
    res = windowed_twisted_stat(q, Hp, chi)
    assert res["value"] <= TWISTED_WINDOW_C * res["scale"]


def test_windowed_twisted_stat():
    q = 211
    chi = [c for c in build_characters(q) if not c.is_principal()][2]
    # H' = 1: single-term windows sum |chi(z)| = phi(q)
    r1 = windowed_twisted_stat(q, 0, chi, BetaPolicy(name="zero"))
    assert r1["value"] == pytest.approx(euler_phi(q))
    # beta restricted to 0 matches the plain windowed L1 statistic
    vals = chi.values()
    Hp = 4
    brute = sum(abs(np.sum(vals[z:z + Hp + 1])) for z in range(q))
    r0 = windowed_twisted_stat(q, Hp, chi, BetaPolicy(name="zero"))
    assert r0["value"] == pytest.approx(brute)
    # the sup over a beta grid dominates the beta = 0 slice
    rg = windowed_twisted_stat(q, Hp, chi)
    assert rg["value"] >= r0["value"]


def _window_sup_beta_oracle(vals, z, Hp, policy):
    """sup over beta of one window's twisted sum: grid argmax, then golden refine."""
    a = np.arange(z, min(z + Hp + 1, len(vals)))
    w = vals[a]

    def amp(beta):
        return abs(np.sum(w * np.exp(2j * np.pi * beta * a)))

    grid = policy.grid(Hp)
    amps = [amp(b) for b in grid]
    i = int(np.argmax(amps))
    best = amps[i]
    if policy.name != "grid+golden" or len(grid) < 2:
        return float(best)
    step = 1.0 / len(grid)
    lo, hi = grid[i] - step, grid[i] + step
    invphi = (math.sqrt(5) - 1) / 2
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = amp(c), amp(d)
    for _ in range(policy.golden_iters):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = amp(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = amp(c)
    return float(max(best, fc, fd))


@pytest.mark.parametrize("block", [char_sums.WINDOW_BLOCK_ELEMS, 37], ids=["one_block", "blocks_of_37"])
@pytest.mark.parametrize("q, order", [(997, 2), (1001, 6), (2003, 2)])
def test_windowed_twisted_stat_matches_per_window_oracle(monkeypatch, block, q, order):
    # 37 elements: blocks of 4 or 3 windows, the last one ragged
    monkeypatch.setattr(char_sums, "WINDOW_BLOCK_ELEMS", block)
    chi = next(c for c in build_characters(q) if c.order() == order)
    Hp = math.floor(q**0.3)
    vals = chi.values()
    oracle = np.array([_window_sup_beta_oracle(vals, z, Hp, BetaPolicy()) for z in range(q)])
    got = char_sums._windows_sup_beta(vals, Hp, BetaPolicy())
    # a grid-argmax flip between near-tied points would move a window by far more
    assert np.max(np.abs(got - oracle) / oracle) <= 1e-12
    total = windowed_twisted_stat(q, Hp, chi)["value"]
    assert total == pytest.approx(math.fsum(oracle), rel=1e-12)


def _huxley_windows_oracle(x, q, r, Hp, policy):
    """The per-window loop of the H = x hybrid statistic."""
    ps = primes_in(2, x)
    W = np.bincount(ps % q, weights=np.log(ps.astype(np.float64)), minlength=q)
    coprime = np.gcd(np.arange(q), q) == 1
    main_scale = x / euler_phi(q)
    total = 0.0
    for z in range(q):
        u = np.arange(z, min(z + Hp + 1, q))
        wz = W[u]
        mz = np.where(coprime[u], main_scale, 0.0)
        vr = u % r
        best = 0.0
        for beta in policy.grid(Hp):
            tw = np.exp(2j * np.pi * beta * u)
            diff_re = np.bincount(vr, weights=(wz - mz) * tw.real, minlength=r)
            diff_im = np.bincount(vr, weights=(wz - mz) * tw.imag, minlength=r)
            best = max(best, float(np.max(np.hypot(diff_re, diff_im))))
        total += best
    return total


@pytest.mark.parametrize("block", [char_sums.WINDOW_BLOCK_ELEMS, 37], ids=["one_block", "blocks_of_37"])
@pytest.mark.parametrize("x, q, r, Hp", [(500, 23, 3, 4), (4000, 211, 5, 9),
                                         (2000, 97, 11, 2)])  # r > Hp + 1 sets the block
def test_huxley_windows_match_per_window_oracle(monkeypatch, block, x, q, r, Hp):
    monkeypatch.setattr(char_sums, "WINDOW_BLOCK_ELEMS", block)
    for policy in (BetaPolicy(), BetaPolicy(name="zero")):
        res = huxley_stat_windows(x, x, q, r, Hp, beta_policy=policy)
        assert res["value"] == _huxley_windows_oracle(x, q, r, Hp, policy)


@pytest.mark.parametrize("x, H, q, r", [
    (2000, 97, 53, 7),
    (1500, 60, 53, 1),  # one class
    (1000, 50, 1201, 5),  # q > x + H: p mod q = p
    (800, 790, 97, 3),  # H close to x: most leave events fall beyond x
    (700, 4, 6, 5),  # class 4 has no primes; classes 0 and 1 (p = 5, 7) enter after y = 0
])
def test_huxley_progressions_brute_force(x, H, q, r):
    res = huxley_stat_progressions(x, H, q, r)
    ps = primes_in(2, x + H)
    logp = np.log(ps.astype(float))
    cls = (ps % q) % r
    brute = 0.0
    for y in range(x):
        m = (ps >= y) & (ps <= y + H)
        sums = np.bincount(cls[m], weights=logp[m], minlength=r)
        brute += float(np.sum(np.abs(sums - H / r)))
    assert res["value"] == pytest.approx(brute, rel=1e-9)


def test_huxley_collapse_r1_Hx():
    # r = 1, H = x: the statistic is |theta(x) - x|
    from skewlab.primes import chebyshev_theta

    x = 10**5
    res = huxley_stat_progressions(x, x, 97, 1)
    assert res["value"] == pytest.approx(abs(chebyshev_theta(x) - x), rel=1e-9)


def test_huxley_q_above_x():
    # q > x: p_q = p, r = 2, H = x: theta imbalance between odd classes
    x, q, r = 10**4, 10**4 + 7, 2
    res = huxley_stat_progressions(x, x, q, r)
    ps = primes_in(2, x)
    logp = np.log(ps.astype(float))
    direct = sum(abs(float(np.sum(logp[(ps % q) % r == v])) - x / r) for v in (0, 1))
    assert res["value"] == pytest.approx(direct, rel=1e-9)


def test_huxley_windows_collapse_and_main_term():
    x = 3000
    q, r, Hp = 101, 3, 8
    res = huxley_stat_windows(x, x, q, r, Hp, beta_policy=BetaPolicy(name="zero"))
    assert res["value"] > 0
    with pytest.raises(ResourceError):
        huxley_stat_windows(10**4, 10**3, q, r, Hp)


def test_huxley_windows_brute_force_oracle():
    # literal triple-loop oracle at beta = 0, sup over v only
    import math as m

    x, q, r, Hp = 500, 23, 3, 4
    res = huxley_stat_windows(x, x, q, r, Hp, beta_policy=BetaPolicy(name="zero"))
    ps = primes_in(2, x)
    logp = {int(p): m.log(int(p)) for p in ps}
    phi_q = euler_phi(q)
    brute = 0.0
    for z in range(q):
        best = 0.0
        for v in range(r):
            s = sum(w for p, w in logp.items()
                    if p % q % r == v and z <= p % q <= z + Hp)
            main = sum(x / phi_q for a in range(z, min(z + Hp + 1, q))
                       if m.gcd(a, q) == 1 and a % r == v)
            best = max(best, abs(s - main))
        brute += best
    assert res["value"] == pytest.approx(brute, rel=1e-9)


def test_residue_progression_gap():
    q = 2 * 3 * 5 * 7 * 11 * 13
    res = residue_progression_gap(q, 17, q)
    # brute force
    import math as m

    count = [0] * 17
    for n in range(1, q + 1):
        if m.gcd(n, q) == 1:
            count[n % 17] += 1
    brute = np.mean([abs(c - euler_phi(q) / q * q / 17) for c in count])
    assert res["value"] == pytest.approx(float(brute))
    # d = 1: gap comes from rounding of q/r only
    res1 = residue_progression_gap(30, 7, 1)
    assert res1["value"] <= 1.0


def test_residue_progression_gap_trend():
    # phi(d) q / (d r) in {10, 10^2, 10^3}: relative gap shrinks
    ratios = []
    for q, r in ((2 * 3 * 5 * 7, 21), (2 * 3 * 5 * 7 * 11, 23), (30030, 13 * 2 - 3)):
        if math.gcd(r, q) != 1:
            r += 2
        res = residue_progression_gap(q, r, q)
        ratios.append((euler_phi(q) / q * q / r, res["value"] / res["normalizer"]))
    ratios.sort()
    assert ratios[-1][1] < ratios[0][1]


def test_twisted_residue_window():
    # beta = 0, d = 1: integer counts, brute-force checkable
    a, b = twisted_residue_window(100, 1, 4, 1, 10, 40, 0.0)
    ns = range(10, 51)
    assert a == sum(1 for n in ns if n % 4 == 1)
    assert b == pytest.approx(sum(1 for n in ns if n % 2 == 1) / euler_phi(4))
    # r = 1: the two sums coincide
    a, b = twisted_residue_window(100, 10, 1, 0, 50, 60, 0.123)
    assert a == pytest.approx(b)


def test_window_coprime_count_j3():
    rng = np.random.default_rng(9)
    for _ in range(20):
        qp = int(rng.integers(100, 10**6))
        H = math.isqrt(qp) + 1
        y = int(rng.integers(0, qp))
        res = window_coprime_count(qp, y, H)
        assert res["gap"] <= max(50.0, 0.05 * res["expected"])
