import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lemmas import (character_order_conductor, class_log_histogram, huxley_sliding_oracle,
                    residue_progression_gap, traced_peak, twisted_residue_window)
from skewlab import char_sums
from skewlab.char_sums import (SLIDE_STEP, Character, build_characters, gauss_sum,
                               huxley_stat_progressions, huxley_stat_windows,
                               progression_char_stat, window_coprime_count,
                               windowed_twisted_stat)
from skewlab.dd import e
from skewlab.errors import (IntegrityError, InvalidInputError, PreconditionError, RangeError,
                            ResourceError)
from skewlab.primes import SEGMENT_SIZE, default_source, euler_phi, factorize, primes_in


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
    """The value row as one e(row / L) per entry, masked to 0 on non-units."""
    tab = chi.table
    q, L = tab.q, tab.exponent
    a = np.arange(q) if q > 1 else np.zeros(1, dtype=np.int64)
    row = np.zeros(len(a), dtype=np.int64)
    for k, comp in zip(chi.ks, tab.components):
        D = comp.dlog[a % comp.modulus]
        row = (row + (k * (L // comp.order)) * np.where(D >= 0, D, 0)) % L
    out = e(row.astype(np.float64) / L)
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


@pytest.mark.parametrize("q", [5, 8, 12, 4999])
def test_quadratic_characters_are_exactly_real(q):
    # e(1/2) is exactly -1: an order-2 character takes only the values -1, 0 and 1
    quadratic = [chi for chi in build_characters(q) if chi.order() == 2]
    assert quadratic
    for chi in quadratic:
        vals = chi.values()
        assert np.all(vals.imag == 0) and set(vals.real.tolist()) <= {-1.0, 0.0, 1.0}, chi.ks


@pytest.mark.parametrize("q", [1, 2, 12, 1024, 1155])
def test_rows_independent_of_access_order(q):
    seq = [chi.values() for chi in build_characters(q)]
    tab = build_characters(q)
    assert np.array_equal(next(iter(tab)).values(), seq[0])
    assert all(np.array_equal(chi.values(), want)
               for chi, want in zip(reversed(list(tab)), reversed(seq)))
    # character n has the n-th exponent tuple of the mixed radix order, the last fastest
    all_ks = list(itertools.product(*(range(comp.order) for comp in tab.components)))
    assert [chi.ks for chi in tab] == all_ks and next(iter(tab)).is_principal()
    rng = np.random.default_rng(q)
    for n in rng.permutation(len(all_ks))[:50]:
        chi = Character(tab, int(n))
        assert chi.ks == all_ks[n] and np.array_equal(chi.values(), seq[n]), (q, n)


def test_character_index_is_checked():
    # n = phi raised a bare IndexError on its first lookup, and n = -1 named character phi - 1
    tab = build_characters(7)
    for n in (-1, -6, 6, 7, 10**30):
        with pytest.raises(RangeError):
            Character(tab, n)
    assert [Character(tab, n).order() for n in (0, 5)] == [1, 6]


def test_value_rows_are_read_only_and_built_once():
    chi = list(build_characters(7))[3]
    vals = chi.values()
    assert chi.values() is vals
    with pytest.raises(ValueError):
        vals[1] = 0


def test_iteration_builds_no_rows():
    q = 100003  # prime: one value row takes 1.6 MB
    tab = build_characters(q)
    chars = []
    tracemalloc.start()
    try:
        for chi in tab:
            chars.append(chi)
            if len(chars) % 100 == 0:
                # per character its object, index and list slot: 100 rows would take
                # 160 MB at the first check
                assert tracemalloc.get_traced_memory()[0] < 256 * len(chars) + 64 * q
    finally:
        tracemalloc.stop()
    assert len(chars) == q - 1


def test_walking_rows_holds_one_block_and_the_rows_kept():
    q = 4999
    tab = build_characters(q)
    tracemalloc.start()
    try:
        kept = []
        for n, chi in enumerate(tab):
            vals = chi.values()
            if n % 100 == 0:
                kept.append(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = char_sums.WINDOW_BLOCK_ELEMS // q * q * 8  # one block of int64 exponents
    row = 16 * q
    # the block buffers (three of this size), the root table, the pool of
    # itertools.product and rows in flight; 50 kept rows that each held on to
    # their block would add 26 MB
    assert peak < 4 * block + (len(kept) + 16) * row, (peak, block, len(kept))


def test_orthogonality_defect_matches_stacked_rows():
    for q in range(1, 61):
        rows = np.stack([chi.values() for chi in build_characters(q)])
        gram = rows @ rows.conj().T
        want = float(np.max(np.abs(gram - len(rows) * np.eye(len(rows)))))
        assert build_characters(q).orthogonality_defect() == want, q


def test_conductor_against_structure():
    # mod 12 = 4 * 3: nontrivial characters have conductors in {3, 4, 12}
    tab = build_characters(12)
    conds = sorted(c.conductor() for c in tab)
    assert conds == [1, 3, 4, 12]
    # mod p prime: conductor is 1 or p
    tab = build_characters(13)
    assert {c.conductor() for c in tab} == {1, 13}


def _conductor_oracle(tab):
    """Per character, the least f | q with chi(a) = 1 on every unit a = 1 mod f."""
    q = tab.q
    rows = np.stack([chi.values() for chi in tab])
    a = np.arange(q)
    units = np.gcd(a, q) == 1
    cond = np.zeros(len(rows), dtype=np.int64)
    for f in (f for f in range(1, q + 1) if q % f == 0):
        kernel = units & (a % f == 1 % f)
        trivial = np.all(np.abs(rows[:, kernel] - 1) < 1e-9, axis=1)
        cond[(cond == 0) & trivial] = f
    return cond.tolist()


@pytest.mark.parametrize("qs", [range(1, 201), (256, 1000, 1024, 1155)],
                         ids=["q<=200", "256,1000,1024,1155"])
def test_conductor_matches_kernel_oracle(qs):
    for q in qs:
        tab = build_characters(q)
        assert [chi.conductor() for chi in tab] == _conductor_oracle(tab), q


@pytest.mark.parametrize("qs", [range(1, 1201), (2048, 4096, 30030, 60060, 65536, 99991, 120120)],
                         ids=["q<=1200", "larger-q"])
def test_orders_and_conductors_match_the_per_character_oracle(qs):
    for q in qs:
        got = [(chi.order(), chi.conductor(), chi.is_primitive()) for chi in build_characters(q)]
        want = [(*oc, oc[1] == q)
                for oc in map(character_order_conductor, build_characters(q))]
        assert got == want, q


def _loop_dlog_tables(q):
    """(modulus, order, dlog) per cyclic factor, each table built element by element."""
    out = []
    for p, ex in factorize(q):
        pe = p**ex
        if p == 2 and ex >= 3:
            minus, five = [-1] * pe, [-1] * pe
            v = 1
            for k in range(pe // 4):
                minus[v], five[v], minus[pe - v], five[pe - v] = 0, k, 1, k
                v = v * 5 % pe
            out += [(pe, 2, minus), (pe, pe // 4, five)]
        elif pe != 2:
            order = pe // p * (p - 1)
            g = 3 if pe == 4 else char_sums._primitive_root_prime_power(p, ex)
            tbl, v = [-1] * pe, 1
            for j in range(order):
                tbl[v] = j
                v = v * g % pe
            out.append((pe, order, tbl))
    return out


def test_dlog_tables_match_loop_oracle():
    for q in [*range(1, 2001), *(2**e for e in range(11, 20)), 999983]:
        got = [(c.modulus, c.order, c.dlog) for c in char_sums._components_of(factorize(q))]
        want = _loop_dlog_tables(q)
        assert [g[:2] for g in got] == [w[:2] for w in want], q
        assert all(np.array_equal(g[2], w[2]) for g, w in zip(got, want)), q


def test_gauss_sum_modulus():
    for e in (3, 5, 7, 11):
        for chi in build_characters(e):
            if chi.is_primitive():
                assert abs(abs(gauss_sum(chi, 1)) - math.sqrt(e)) < 1e-9
    chi = next(c for c in build_characters(7) if c.is_primitive())
    assert abs(gauss_sum(chi, 0)) < 1e-12  # character sums to zero
    chi0 = next(iter(build_characters(8)))
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
        progression_char_stat(10, 3, next(iter(tab)))


def test_statistics_refuse_a_q_other_than_the_characters():
    # progression once met a value row of the wrong length (numpy's ValueError), and
    # windowed returned the statistic of q = 7 with the scale and H' bound of q = 10**6
    chi = Character(build_characters(7), 1)
    with pytest.raises(PreconditionError, match="modulus 7"):
        progression_char_stat(5, 3, chi)
    with pytest.raises(PreconditionError, match="modulus 7"):
        windowed_twisted_stat(10**6, 2, chi)


def test_progression_stat_takes_r_beyond_int64():
    # r >= q puts each a < q in its own class: np.arange(q) % r overflowed for r >= 2**63
    for chi in list(build_characters(101))[1:4]:
        assert progression_char_stat(101, 10**23, chi) == progression_char_stat(101, 102, chi)


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
    # H' = 0: the grid is {0} and single-term windows sum |chi(z)| = phi(q)
    r1 = windowed_twisted_stat(q, 0, chi)
    assert r1["value"] == pytest.approx(euler_phi(q))
    # the sup over a beta grid holding 0 dominates the plain windowed L1 statistic
    vals = chi.values()
    Hp = 4
    brute = sum(abs(np.sum(vals[z:z + Hp + 1])) for z in range(q))
    zero = sum(_window_sup_beta_oracle(vals, z, Hp, np.zeros(1)) for z in range(q))
    assert zero == pytest.approx(brute)
    rg = windowed_twisted_stat(q, Hp, chi)
    assert rg["value"] >= brute


def _window_sup_beta_oracle(vals, z, Hp, grid):
    """sup over beta of one window's twisted sum: grid argmax, then golden refine."""
    a = np.arange(z, min(z + Hp + 1, len(vals)))
    w = vals[a]

    def amp(beta):
        return abs(np.sum(w * e(beta * a)))

    amps = [amp(b) for b in grid]
    i = int(np.argmax(amps))
    best = amps[i]
    if len(grid) < 2:
        return float(best)
    step = 1.0 / len(grid)
    lo, hi = grid[i] - step, grid[i] + step
    invphi = (math.sqrt(5) - 1) / 2
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = amp(c), amp(d)
    for _ in range(char_sums.GOLDEN_ITERS):
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
    grid = char_sums._beta_grid(Hp)
    oracle = np.array([_window_sup_beta_oracle(vals, z, Hp, grid) for z in range(q)])
    got = char_sums._windows_sup_beta(vals, Hp)
    # a grid-argmax flip between near-tied points would move a window by far more
    assert np.max(np.abs(got - oracle) / oracle) <= 1e-12
    total = windowed_twisted_stat(q, Hp, chi)["value"]
    assert total == pytest.approx(math.fsum(oracle), rel=1e-12)


def _huxley_windows_oracle(x, q, r, Hp, grid):
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
        for beta in grid:
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
    res = huxley_stat_windows(x, x, q, r, Hp)
    assert res["value"] == _huxley_windows_oracle(x, q, r, Hp, char_sums._beta_grid(Hp))


@pytest.mark.parametrize("x, q, r, Hp", [(10**7, 1999, 7, 9), (3 * 10**6, 9973, 31, 3),
                                         (10**6, 97, 5, 3), (12345, 7, 3, 1), (1, 5, 2, 1)])
def test_windows_histogram_matches_the_bincount_route(monkeypatch, x, q, r, Hp):
    # the prime walk adds each class's log p in prime order, as one bincount of all did
    W = class_log_histogram(x, q)
    assert np.array_equal(char_sums._class_log_sums(default_source(), x, q, q, q), W)
    got = huxley_stat_windows(x, x, q, r, Hp)
    monkeypatch.setattr(char_sums, "_class_log_sums", lambda *args: W)
    assert got == huxley_stat_windows(x, x, q, r, Hp)


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


SEG = 2 * SEGMENT_SIZE  # integers per prime window: the streamed statistic's window of y
STEP = SLIDE_STEP  # window starts per step of the walk, a divisor of SEG


@pytest.mark.parametrize("x, H, q, r", [
    (STEP - 1, 3000, 9973, 31),
    (STEP, 3000, 9973, 31),
    (STEP + 1, 3000, 9973, 31),
    (STEP + 2, 3000, 9973, 31),  # the first x with two steps, y in [1, STEP + 1) and {STEP + 1}
    (SEG - 1, 3000, 9973, 31),
    (SEG, 3000, 9973, 31),
    (SEG + 1, 3000, 9973, 31),
    (SEG + 2, 3000, 9973, 31),  # the first x with two windows, y in [1, SEG + 1) and {SEG + 1}
    (SEG + STEP + 2, 3000, 9973, 31),  # the first x with two steps in the second window
    (3 * 10**5, 3 * STEP, 97, 5),  # H spans three steps, x two of them
    (10**5, 3 * SEG, 97, 5),  # H spans three prime windows: the primes <= H fold in by window
    (3 * 10**6, 3 * 10**6 - 1, 9973, 31),  # H close to x: leave events stop at x - 2
    (10**5, 10**3, 7, 100),  # r > q: the classes 7..99 hold no prime
    (10**5, 10**3, 97, 1),
    (10**5, 50, 6, 5),  # p mod 6 mod 5 is never 4
    (3000, 2999, 53, 7),  # every prime <= 2999 enters at y = 0
    (1000, 100, 2**40 + 1, 2**40),  # q, r beyond every prime: each prime is its own class
])
def test_streamed_sliding_matches_whole_array_oracle(x, H, q, r):
    # measured against the oracle: 4.0e-14 relative at H = 3 SEG, where both sides lose
    # digits to |S_v - H/r| << H/r, and at most 3.6e-15 on the other rows
    assert huxley_stat_progressions(x, H, q, r)["value"] == pytest.approx(
        huxley_sliding_oracle(x, H, q, r), rel=1e-12)


def test_sliding_peak_does_not_grow_with_x_or_H():
    default_source().primes_in(2, 10**4)  # the sieve's base-prime table, before tracing
    small, big = (traced_peak(huxley_stat_progressions, x, 10**4, 9973, 31)
                  for x in (3 * SEG, 6 * SEG))
    # the whole-array route held ~100 bytes per prime: 3 SEG more x would add ~40 MB
    assert big < small + (1 << 20)
    # two windows of primes and one step's events: measured 10.9 MiB, where a whole
    # window's events took 25.2 MiB
    assert big < 16 << 20
    small, big = (traced_peak(huxley_stat_progressions, 10**4, H, 9973, 31)
                  for H in (2 * SEG, 8 * SEG))
    assert big < small + (1 << 20)
    assert big < 16 << 20


def test_sliding_returns_under_one_gib_of_address_space():
    # the whole-array route ended in MemoryError here: 2e8 of H held 11M primes 4 times over
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from skewlab.char_sums import huxley_stat_progressions; "
            "print(huxley_stat_progressions(10, 2 * 10**8, 97, 5)['value'])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert 0 < float(out.stdout) < 10 * 2 * 10**8


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


def test_huxley_progressions_refuse_int64_overflow():
    for q, r in ((2**64, 7), (7, 2**64), (2**63, 1)):  # OverflowError from numpy before
        with pytest.raises(RangeError):
            huxley_stat_progressions(1000, 100, q, r)
    assert huxley_stat_progressions(1000, 100, 2**63 - 1, 5)["windows"] == 1000
    with pytest.raises(ResourceError):  # 1e9 classes of carried state, refused before sieving
        huxley_stat_progressions(10**9, 10**6, 2**40 + 1, 2**40)


def test_huxley_windows_refuse_out_of_domain():
    # a reshape and a bincount ValueError, numpy's size limit, and q = 0 after a warning
    for q, r, Hp in ((101, 0, 3), (-1, 3, 3), (101, 3, -1), (0, 3, 3)):
        with pytest.raises(InvalidInputError):
            huxley_stat_windows(1000, 1000, q, r, Hp)
    for q, r, Hp in ((101, 3, 2**64), (2**64, 3, 3), (101, 2**64, 3)):
        with pytest.raises(ResourceError):
            huxley_stat_windows(1000, 1000, q, r, Hp)


def test_huxley_windows_collapse_and_main_term():
    x = 3000
    q, r, Hp = 101, 3, 8
    res = huxley_stat_windows(x, x, q, r, Hp)
    assert res["value"] > 0
    with pytest.raises(ResourceError):
        huxley_stat_windows(10**4, 10**3, q, r, Hp)


def test_huxley_windows_brute_force_oracle():
    # literal loop oracle: sup over v and over the betas of the grid, for the library's
    # grid and, through the per-window oracle, for beta = 0 alone
    import cmath
    import math as m

    x, q, r, Hp = 500, 23, 3, 4
    ps = primes_in(2, x)
    logp = {int(p): m.log(int(p)) for p in ps}
    phi_q = euler_phi(q)
    res = huxley_stat_windows(x, x, q, r, Hp)
    assert set(res) == {"value", "trivial_scale"}
    for grid, value in ((char_sums._beta_grid(Hp), res["value"]),
                        (np.zeros(1), _huxley_windows_oracle(x, q, r, Hp, np.zeros(1)))):
        brute = 0.0
        for z in range(q):
            best = 0.0
            for beta in grid.tolist():
                for v in range(r):
                    s = sum(w * cmath.exp(2j * m.pi * beta * (p % q)) for p, w in logp.items()
                            if p % q % r == v and z <= p % q <= z + Hp)
                    main = sum(x / phi_q * cmath.exp(2j * m.pi * beta * a)
                               for a in range(z, min(z + Hp + 1, q))
                               if m.gcd(a, q) == 1 and a % r == v)
                    best = max(best, abs(s - main))
            brute += best
        assert value == pytest.approx(brute, rel=1e-9), len(grid)


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
    with pytest.raises(ResourceError):  # numpy's "Maximum allowed dimension exceeded" before
        window_coprime_count(30, 5, 2**64)
    with pytest.raises(InvalidInputError):  # expected = -0.53 before
        window_coprime_count(30, 5, -3)
