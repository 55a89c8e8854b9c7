import gc
import io
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lemmas import (continuity_certificate, g_truncated, prime_gap_filter, prime_sparse_window,
                    ramp_eval, rigidity_distribution_gap, tent_eval, tent_variation)
from skewlab import counterexample
from skewlab.counterexample import (Q_CAP, AlmostSparseSet, RampFunction, StageConstruction,
                                    TentFunction, eps_n, orbit_cells)
from skewlab.dd import MULMOD_LIMIT
from skewlab.diophantine import ContinuedFraction
from skewlab.errors import ConstructionError, InvalidInputError, PreconditionError, RangeError
from skewlab.presets import counterexample_stages
from skewlab.primes import primes_in


@pytest.fixture(scope="module")
def solved():
    st = counterexample_stages(n_stages=2)
    st.solve_all()
    return st


@pytest.fixture(scope="module")
def solved3():
    st = counterexample_stages(n_stages=3)
    st.solve_all()
    return st


# -- exact oracle: per-point Fraction arithmetic and the scalar slope bracket --

def _oracle_slope(q, window_s, L_window, s):
    ws = np.asarray(window_s, dtype=np.int64)
    Ls = np.asarray(L_window, dtype=np.float64)
    w0, wt = int(ws[0]), int(ws[-1])
    L0, Lt = float(Ls[0]), float(Ls[-1])
    s = int(s) % q
    if w0 <= s <= wt:
        i = int(np.searchsorted(ws, s, side="right")) - 1
        if ws[i] == s:
            return float(Ls[i])
        return float(Ls[i] + (s - ws[i]) * (Ls[i + 1] - Ls[i]) / (ws[i + 1] - ws[i]))
    s_ext = s if s >= wt else s + q
    return Lt + (s_ext - wt) * ((L0 - Lt) / (q - wt + w0))


def _oracle_f(st, m, x: Fraction) -> float:
    """f_m(x) with the offset inside the cell kept as an exact Fraction."""
    data = st._stages[m]
    q, q1 = data["q"], data["q_next"]
    x = x % 1
    j = int(x * q)
    s = j * pow(st.cf.p(data["k"]), -1, q) % q
    L = _oracle_slope(q, data["window_s"], data["L_window"], s)
    off = float(x - Fraction(j, q))
    if off <= 1.0 / q1:
        return L * off
    if off >= 1.0 / q - 1.0 / q1:
        return L * (1.0 / q - off)
    return L / q1


def _oracle_tent(q, x: Fraction) -> float:
    u = (x * q) % 1
    return float(2 * u) if u <= Fraction(1, 2) else float(2 * (1 - u))


def _oracle_birkhoff0(st, w, upto) -> float:
    wa = (w * st.cf.value) % 1
    total = 0.0
    for m in range(1, upto + 1):
        total += _oracle_f(st, m, wa)
        if st.include_h:
            total += _oracle_tent(st.cf.q(st.stage_l[m - 1]), wa)
    return total


@pytest.mark.parametrize("variant", ["standard", "include_h"])
def test_integer_evaluator_matches_fraction_oracle(variant, solved3):
    if variant == "standard":
        st = solved3
    else:
        st = counterexample_stages(n_stages=2, include_h=True)
        st.solve_all()
    rng = np.random.default_rng(2024)
    for n in range(1, st.solved() + 1):
        data = st._stages[n]
        window = data["window"]
        idx = np.sort(rng.choice(len(window), min(500, len(window)), replace=False))
        alpha, p_q = st.cf.value, st.cf.convergent(data["k"])
        target = 0.0 if n % 2 == 0 else 0.5
        deviations = st.verify_phi(n)["deviations"]
        for i in idx.tolist():
            w = window[i]
            r = _oracle_birkhoff0(st, w, n - 1) % 1.0
            assert data["r_window"][i] == r
            offset = float(w * (alpha - p_q))  # w*alpha - w*p_k/q_k, in the up-ramp
            assert data["L_window"][i] == ((2.0 if n % 2 == 0 else 1.5) - r) / offset
            y = _oracle_birkhoff0(st, w, st.solved()) % 1.0
            assert deviations[i] == min(abs(y - target), 1 - abs(y - target))
    for w in (1, 5, 17):
        assert st.birkhoff0_many([w])[0] == _oracle_birkhoff0(st, w, st.solved())
    assert st.f(1) is st.f(1)


@pytest.mark.parametrize("variant", ["standard", "include_h"])
def test_array_evaluator_equals_exact_path_on_every_window_point(variant, solved3):
    if variant == "standard":
        st = solved3
    else:
        st = counterexample_stages(n_stages=2, include_h=True)
        st.solve_all()
    alpha = st.cf.value
    P, Q = alpha.numerator, alpha.denominator
    for n in range(1, st.solved() + 1):
        window = st._stages[n]["window"]
        ws, nums = np.asarray(window, dtype=np.int64), [w * P % Q for w in window.tolist()]
        for m in range(1, st.solved() + 1):
            terms = [st.f(m)] + ([st.h(m)] if st.include_h else [])
            for term in terms:
                got, fallbacks = term.at_multiples(ws, alpha)
                assert np.array_equal(got, term.at_fractions(nums, Q))
                assert fallbacks < 100
    assert sum(st.exact_fallbacks.values()) < 100


def test_stage_record_holds_arrays():
    # one record per stage: the window data as arrays, never a list copy beside them
    tracemalloc.start()
    standard = counterexample_stages(n_stages=3).solve_all()
    for n in (1, 2, 3):
        standard.verify_phi(n)
        standard.bump_average(n)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert held < 10 * 2**20, held  # about 17 MB with the lists kept beside the arrays
    variants = [standard, counterexample_stages(n_stages=2, include_h=True).solve_all(),
                counterexample_stages(n_stages=2, mu_twist=True).solve_all()]
    for st in variants:
        for n in range(1, st.solved() + 1):
            data = st._stages[n]
            for field, dtype in (("window", np.int64), ("window_s", np.int64),
                                 ("r_window", np.float64), ("targets", np.float64),
                                 ("L_window", np.float64)):
                assert isinstance(data[field], np.ndarray) and data[field].dtype == dtype, field
                assert data[field].shape == data["window"].shape, field
            want = (st.f(n), st.h(n)) if st.include_h else (st.f(n),)
            assert len(data["terms"]) == len(want)
            assert all(a is b for a, b in zip(data["terms"], want))
    assert variants[1].h(1) is variants[1].h(1)


def _exact_cells(ws, alpha, q, p):
    rho = q * alpha - p
    ks = [math.floor(w * rho) for w in ws]
    ss = [(w + k * pow(p, -1, q)) % q for w, k in zip(ws, ks)]
    return ks, ss, [float((w * rho - k) / q) for w, k in zip(ws, ks)]


# (q, p, rho): alpha = (p + rho)/q; multiples of 1/3, 5/(2**40 + 1) and -2/7 hit
# frac(w rho) = 0, rho = 1/2 + 2**-54 makes frac(rho)/4 a rounding tie, and the last
# case takes mulmod's largest modulus with floor(w rho) up to 2**38
@pytest.mark.parametrize("q, p, rho", [(7, 3, Fraction(1, 3)), (46, 13, Fraction(5, 2**40 + 1)),
                                       (4, 1, Fraction(1, 2) + Fraction(1, 2**54)),
                                       (MULMOD_LIMIT - 1, 3**26, Fraction(-2, 7))])
def test_orbit_cells_exact_where_not_certified(q, p, rho):
    alpha = (p + rho) / q
    rng = np.random.default_rng(q)
    zeros = [rho.denominator * int(t) for t in rng.integers(1, 2**12, 50)] * (q != 4)
    ws = np.array(zeros + [-z for z in zeros[:10]] + [1, 0, -1]
                  + rng.integers(-2**40, 2**40, 1000).tolist(), dtype=np.int64)
    k, s, off, fallbacks = orbit_cells(ws, alpha, q, p)
    ks, ss, offs = _exact_cells(ws.tolist(), alpha, q, p)
    assert k.tolist() == ks and s.tolist() == ss
    assert np.array_equal(off, offs)
    assert fallbacks >= sum(o == 0.0 for o in offs) + (q == 4)  # the w = 1 tie
    empty = orbit_cells(np.array([], dtype=np.int64), alpha, q, p)
    assert [a.size for a in empty[:3]] == [0, 0, 0] and empty[3] == 0


def test_cells_beyond_mulmod_raise_range_error():
    # every stage has q <= Q_CAP, inside mulmod's range; a larger q is refused, not recomputed
    assert Q_CAP < MULMOD_LIMIT
    cf = ContinuedFraction([1] * 80)
    k = next(k for k in range(80) if cf.q(k) >= MULMOD_LIMIT)
    q, p = cf.q(k), cf.p(k)
    ws = np.random.default_rng(1).integers(-2**52, 2**52, 200)
    with pytest.raises(RangeError):
        orbit_cells(ws, cf.value, q, p)
    with pytest.raises(RangeError):
        ramp_eval(RampFunction(q, cf.q(k + 1), p, [0, q // 3], [2.0, 3.0]), 0.5)


def test_orbit_cells_checks_its_domain():
    # q = 0 and p = 0 once reached pow() (ValueError), q >= 2**63 numpy's w % q (OverflowError)
    ws = np.arange(-5, 5, dtype=np.int64)
    for q in (0, -7, 2**63 + 1):
        with pytest.raises(RangeError):
            orbit_cells(ws, (1 + Fraction(1, 3)) / max(q, 1), q, 1)
    for p, q in ((0, 3), (6, 9), (4, 46)):
        with pytest.raises(PreconditionError):
            orbit_cells(ws, (p + Fraction(1, 3)) / q, q, p)
    # uint64 within int64 is taken: floor(3 rho) = 1 at rho = 1/3
    assert orbit_cells(np.array([3], dtype=np.uint64), Fraction(4, 3) / 7, 7, 1)[0].tolist() == [1]


def test_birkhoff0_many_refuses_indices_beyond_int64(solved3):
    # numpy's int64 conversion once raised a bare OverflowError
    for ws in ([2**64], [5, -2**63 - 1]):
        with pytest.raises(RangeError):
            solved3.birkhoff0_many(ws)
    assert solved3.birkhoff0_many([2**63 - 1, -2**63]).shape == (2,)


# w = 2.5 was evaluated at 2, uint64 2**63 wrapped to -2**63, 1e30 only warned, and
# orbit_cells([2**64]) raised a bare TypeError; each is refused before any work
INDEX_DOMAIN = [
    pytest.param([2.5], InvalidInputError, id="float"),
    pytest.param(np.array([2**63], dtype=np.uint64), RangeError, id="uint64"),
    pytest.param(np.array([1e30]), InvalidInputError, id="1e30"),
    pytest.param([2**64], RangeError, id="2**64"),
]


@pytest.mark.parametrize("ws, error", INDEX_DOMAIN)
def test_birkhoff0_many_keeps_its_index_domain(ws, error, solved3):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning of the cast is no refusal
        with pytest.raises(error):
            solved3.birkhoff0_many(ws)


@pytest.mark.parametrize("ws, error", INDEX_DOMAIN)
def test_orbit_cells_keeps_its_index_domain(ws, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            orbit_cells(ws, Fraction(4, 3) / 7, 7, 1)


def test_float_path_residue_is_exact(solved3):
    # at stage 3 the residue product j * p^-1 mod q leaves int64
    f = solved3.f(3)
    assert (f.q - 1) * f.p_inv >= 2**63
    xs = np.random.default_rng(7).random(2000)
    exact = np.array([f.eval_frac(Fraction(x)) for x in xs])
    assert np.max(np.abs(ramp_eval(f, xs) - exact)) < 1e-3


def test_squares_descriptor_windows():
    A = AlmostSparseSet()
    # every square in [1, 100] survives: B_100 is empty
    assert A.window(1, 100).tolist() == [1, 4, 9, 16, 25, 36, 49, 64, 81, 100]
    # consecutive gaps grow along windows
    gaps_low = np.diff(A.window(1, 100))
    gaps_high = np.diff(A.window(10**4, 2 * 10**4))
    assert gaps_high.min() > gaps_low.max()


def test_primes_descriptor_gap_filter():
    N = 10**4
    surv = prime_sparse_window(0, N)
    c = prime_gap_filter(N)
    assert min(np.diff(surv)) > c
    ps = primes_in(2, N)
    bad = set(ps.tolist()) - set(surv.tolist())  # B_N: the members window removes
    assert len(bad) / len(ps) < 0.5


@pytest.mark.parametrize("N", [10**4, 10**6])
def test_primes_descriptor_equals_pairwise_loop(N):
    # the oracle: a dense sieve of [0, N] and a loop over consecutive primes
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    ps = np.flatnonzero(is_prime).tolist()
    c = prime_gap_filter(N)
    bad = set()
    for a, b in zip(ps, ps[1:]):
        if b - a <= c:
            bad.add(a)
            bad.add(b)
    # the larger members of the first and last close pairs: their partners lie below lo
    firsts = [b for a, b in zip(ps, ps[1:]) if b - a <= c]
    for lo in (0, 2, 3, N // 2, N - 100, firsts[0], firsts[-1]):
        want = [p for p in ps if p >= lo and p not in bad]
        got = prime_sparse_window(lo, N)
        assert got.dtype == np.int64 and got.tolist() == want, lo
    # a window below N: B_{N // 2} from the primes up to N // 2 alone
    half, c_half = [p for p in ps if p <= N // 2], prime_gap_filter(N // 2)
    bad_half = {p for a, b in zip(half, half[1:]) if b - a <= c_half for p in (a, b)}
    want = [p for p in half if p >= N // 3 and p not in bad_half]
    assert prime_sparse_window(N // 3, N // 2).tolist() == want
    assert prime_sparse_window(0, 1).size == 0 and prime_sparse_window(0, 3).size == 0  # B_3


class ListedSet(AlmostSparseSet):
    """A test set given by its members, with an empty bad set."""

    def __init__(self, members):
        self.members = members

    def window(self, lo, hi):
        return np.array([m for m in self.members if lo <= m <= hi], dtype=np.int64)


def test_eps_n_examples():
    A = AlmostSparseSet()
    assert eps_n(A, 100) == Fraction(1, 3)  # gap 4 - 1 = 3
    with pytest.raises(InvalidInputError):  # math.isqrt's ValueError before
        eps_n(A, -1)
    assert eps_n(ListedSet([1, 10, 100]), 100) == Fraction(1, 9)
    with pytest.raises(InvalidInputError):
        eps_n(ListedSet([1]), 100)


def test_ramp_function_shape(solved):
    st = solved
    n = 1
    f = st.f(n)
    k = st.stage_k[n - 1]
    q, q1, p = st.cf.q(k), st.cf.q(k + 1), st.cf.p(k)
    for w in (0, 1, q // 2):
        base = Fraction(w * p % q, q)
        assert f.eval_frac(base) == 0.0  # ramp base
        mid = base + Fraction(1, 2 * q)  # plateau midpoint
        L = f.L_of_s(w)
        assert f.eval_frac(mid) == pytest.approx(L / q1)
        # continuity at the ramp/plateau junction
        junction = base + Fraction(1, q1)
        left = f.eval_frac(junction - Fraction(1, 10**15))
        right = f.eval_frac(junction + Fraction(1, 10**15))
        assert abs(left - right) < 1e-12 * max(1.0, abs(left))
    # float evaluation agrees with the exact branch off the breakpoints
    xs = np.linspace(0.01, 0.99, 37)
    exact = [f.eval_frac(Fraction(x).limit_denominator(10**12)) for x in xs]
    assert np.allclose(ramp_eval(f, xs), exact, rtol=1e-6, atol=1e-9)


def test_tent_function():
    h = TentFunction(7)
    assert h.at_fractions([6, 7], 14).tolist() == [0.0, 1.0]  # h(3/7) and h(1/2)
    xs = np.linspace(0, 1, 101)
    assert np.allclose(tent_eval(h, (xs + 1 / 7) % 1.0), tent_eval(h, xs), atol=1e-12)
    assert tent_variation(h) == 14
    assert abs(np.mean(tent_eval(h, np.arange(7000) / 7000)) - 0.5) < 1e-3


def test_stage_schedule_constraints(solved):
    st = solved
    ks = st.stage_k
    assert all(b > a * a for a, b in zip(ks, ks[1:]))
    assert all(k % 2 == 0 for k in ks)
    for k in ks:
        assert st.cf.convergent(k) < st.cf.value  # ramp branch fixed


def test_stage_targets_hit_exactly(solved):
    st = solved
    for n in range(1, st.solved() + 1):
        data = st._stages[n]
        target_val = 2.0 if n % 2 == 0 else 1.5
        for w, r in zip(data["window"], data["r_window"]):
            f_val = st.f(n).eval_frac((w * st.cf.value) % 1)
            assert f_val + r == pytest.approx(target_val, abs=1e-10)


def test_interpolation_monotone_between_decreasing_targets(solved):
    st = solved
    for n in range(1, st.solved() + 1):
        data = st._stages[n]
        ws, Ls = data["window_s"], data["L_window"]
        l_of = st.f(n).L_of_s
        for i in range(len(ws) - 1):
            if Ls[i] > Ls[i + 1]:
                span = range(ws[i], ws[i + 1])
                vals = [l_of(s) for s in span] + [Ls[i + 1]]
                assert all(a > b for a, b in zip(vals, vals[1:]))


def test_invariants_after_solve(solved):
    for n in range(1, solved.solved() + 1):
        assert solved.check_invariants(n)


def _unique_slope_probes(q, ws):
    """The slope probes as one hash pass picks them: 0, ws, ws + 1 mod q and q - 1, below q - 1."""
    s = np.unique(np.concatenate([ws, (ws + 1) % q, [0, q - 1]]))
    return s[s + 1 < q]


def _joined_slope_steps(st, n):
    """The probes and steps _slope_steps yields piece by piece, each joined into one array."""
    probes, steps = zip(*StageConstruction._slope_steps(st, n))
    return np.concatenate(probes), np.concatenate(steps)


def test_slope_probes_match_unique_oracle(solved3, monkeypatch):
    for n in (1, 2, 3):  # the stage windows take 1, 1 and 7 pieces
        st = solved3._stages[n]
        probes, steps = _joined_slope_steps(solved3, n)
        want = _unique_slope_probes(st["q"], st["window_s"])
        assert probes.dtype == want.dtype and np.array_equal(probes, want), n
        l_of = st["terms"][0].L_of_s
        assert np.array_equal(steps, np.abs(l_of(want + 1) - l_of(want))), n
    # seeded windows: some hold q - 1, 0 or runs of adjacent residues, one is all of [0, q);
    # in pieces of 1 and 2 residues every boundary has a repeat to drop
    rng = np.random.default_rng(16)
    cases = [(q, np.sort(rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False)))
             for q in (2, 3, 7, 50, 1000) for _ in range(30)]
    cases += [(q, np.array(ws)) for q, ws in ((9, [8]), (9, [0]), (9, [0, 1, 2, 6, 7, 8]),
                                              (9, range(9)), (2, [0, 1]))]
    square = SimpleNamespace(L_of_s=lambda s: s * s)
    for piece in (1, 2, counterexample.PIECE):
        monkeypatch.setattr(counterexample, "PIECE", piece)
        for q, ws in cases:
            ws = ws.astype(np.int64)
            fake = SimpleNamespace(_stages={1: {"q": q, "window_s": ws, "terms": (square,)}})
            probes, steps = _joined_slope_steps(fake, 1)
            want = _unique_slope_probes(q, ws)
            assert probes.dtype == want.dtype and np.array_equal(probes, want), (piece, q)
            assert np.array_equal(steps, 2 * want + 1)


def _fallback_indices(f, ws, alpha, lo=0):
    """Indices (plus lo) of the points of ws whose f(w alpha) is recomputed exactly, by halving."""
    if not orbit_cells(ws, alpha, f.q, f.p)[3]:
        return []
    if ws.size == 1:
        return [lo]
    mid = ws.size // 2
    return (_fallback_indices(f, ws[:mid], alpha, lo)
            + _fallback_indices(f, ws[mid:], alpha, lo + mid))


def _birkhoff0_with_fallbacks(st, ws):
    before = sum(st.exact_fallbacks.values())
    return st.birkhoff0_many(ws), sum(st.exact_fallbacks.values()) - before


def _stage_fields(st):
    return [st._stages[n][field] for n in st._stages
            for field in ("window_s", "r_window", "targets", "L_window")]


def test_pieces_keep_every_bit(monkeypatch):
    st = counterexample_stages(n_stages=3).solve_all()  # its own fallback counts
    alpha = st.cf.value
    windows = [st._stages[n]["window"] for n in (1, 2, 3)]
    # the whole stage-3 window in the default pieces, against one piece
    values, fallbacks = _birkhoff0_with_fallbacks(st, windows[2])
    monkeypatch.setattr(counterexample, "PIECE", windows[2].size)
    got = _birkhoff0_with_fallbacks(st, windows[2])
    assert np.array_equal(got[0], values) and got[1] == fallbacks > 0
    # in small pieces stage 3's window is sampled: its ends, a random draw, and the points
    # recomputed exactly with their neighbours
    size = windows[2].size
    near = [i + d for i in _fallback_indices(st.f(1), windows[2], alpha) for d in range(-8, 9)]
    keep = np.concatenate([np.arange(64), np.arange(size - 64, size), near,
                           np.random.default_rng(40).choice(size, 200, replace=False)])
    windows[2] = windows[2][np.unique(keep)]
    want = [_birkhoff0_with_fallbacks(st, ws) for ws in windows]
    assert want[2][1] > 0
    cells = [orbit_cells(windows[2], alpha, st.f(m).q, st.f(m).p) for m in (1, 2, 3)]
    head = {**st._stages[3], "window_s": st._stages[3]["window_s"][:300]}
    sloped = [SimpleNamespace(_stages={1: rec}) for rec in (st._stages[1], st._stages[2], head)]
    slopes = [_joined_slope_steps(fake, 1) for fake in sloped]
    sets = [AlmostSparseSet(), ListedSet([1, 10, 12, 100, 103, 200]), ListedSet([5, 9]),
            ListedSet(AlmostSparseSet().window(0, 10**6)[::7])]
    gaps = [eps_n(A, 10**6) for A in sets]
    variants = [{"n_stages": 2}, {"n_stages": 2, "mu_twist": True}]
    stages = [_stage_fields(counterexample_stages(**kw).solve_all()) for kw in variants]
    for piece in (1, 2, 3, 7):
        monkeypatch.setattr(counterexample, "PIECE", piece)
        for ws, (values, fallbacks) in zip(windows, want):
            got = _birkhoff0_with_fallbacks(st, ws)
            assert np.array_equal(got[0], values) and got[1] == fallbacks, piece
        for m, whole in zip((1, 2, 3), cells):
            parts = [orbit_cells(windows[2][sl], alpha, st.f(m).q, st.f(m).p)
                     for sl in counterexample._pieces(windows[2].size)]
            assert all(np.array_equal(np.concatenate(got), whole[i])
                       for i, got in enumerate(list(zip(*parts))[:3])), piece
            assert sum(part[3] for part in parts) == whole[3], piece
        for fake, oracle in zip(sloped, slopes):
            assert all(np.array_equal(a, b) for a, b in zip(_joined_slope_steps(fake, 1), oracle))
        assert [eps_n(A, 10**6) for A in sets] == gaps
        for kw, fields in zip(variants, stages):
            got = _stage_fields(counterexample_stages(**kw).solve_all())
            assert all(np.array_equal(a, b) for a, b in zip(got, fields)), (piece, kw)


def test_stage_solving_peak_memory_is_bounded():
    # window-sized steps run PIECE points at a time: whole-window arrays peaked at 20 MiB
    tracemalloc.start()
    try:
        st = counterexample_stages(n_stages=3).solve_all()
        for n in (1, 2, 3):
            st.verify_phi(n)
            st.bump_average(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def test_continuity_certificate_decays(solved):
    rows = continuity_certificate(solved)
    sups = [r["sup_term"] for r in rows]
    assert all(s > 0 for s in sups)
    assert sups[-1] < sups[0]


def test_phi_lemma_first_stages():
    st = counterexample_stages(n_stages=3)
    st.solve_all()
    for n in range(1, 4):
        rep = st.verify_phi(n, eps=0.05)
        assert rep["passed"], rep
        target = 0.0 if n % 2 == 0 else 0.5
        assert rep["target"] == target
    bumps = [st.bump_average(n) for n in (1, 2, 3)]
    assert bumps[0] > 0.9 and bumps[2] > 0.9 and bumps[1] < 0.1


def test_shared_window_phases_follow_the_solved_stages():
    # verify_phi and bump_average share S_w(g)(0) mod 1; solving another stage
    # changes it, so a stage-1 report taken before and after must differ
    st = counterexample_stages(n_stages=2)
    st.solve_stage(1)
    early = st.verify_phi(1)["deviations"]
    st.solve_stage(2)
    late = st.verify_phi(1)["deviations"]
    fresh = counterexample_stages(n_stages=2).solve_all()
    assert not np.array_equal(early, late)
    assert np.array_equal(late, fresh.verify_phi(1)["deviations"])
    assert st.bump_average(1) == fresh.bump_average(1)
    late[:] = 0.0  # a caller's array, not the shared phases
    assert np.array_equal(st.verify_phi(1)["deviations"], fresh.verify_phi(1)["deviations"])


def test_g_truncated_along_orbit(solved):
    # S_k(g)(0) from the coboundary telescoping equals the sum of f_n(k alpha)
    st = solved
    for k in (1, 5, 17):
        direct = sum(g_truncated(st, float((j * st.cf.value) % 1)) for j in range(k))
        assert direct == pytest.approx(st.birkhoff0_many([k])[0], abs=1e-8)


def test_g_truncated_at_zero(solved):
    # x = 0: S_1 = g(0) = sum f_n(alpha), since f_n(0) = 0
    st = solved
    total = sum(st.f(n).eval_frac(st.cf.value % 1) for n in range(1, st.solved() + 1))
    assert g_truncated(st, 0.0) == pytest.approx(total, abs=1e-9)
    assert g_truncated(st, 0.0, upto=0) == 0.0


def test_mu_twist_average():
    st = counterexample_stages(n_stages=2, mu_twist=True)
    st.solve_all()
    v = st.mu_twist_average(2)
    assert abs(v) > 0.3
    # squarefree density is the limit point
    assert abs(abs(v) - 6 / math.pi**2) < 0.15


def test_include_h_variant():
    st = counterexample_stages(n_stages=2, include_h=True)
    st.solve_all()
    for n in (1, 2):
        rep = st.verify_phi(n, eps=0.05)
        assert rep["passed"], rep
    diag = rigidity_distribution_gap(st, 1)
    assert 0 < diag["mean_distance_to_nearest_constant"] <= 0.25 + 1e-9
    assert diag["K"] == st.cf.q(st.stage_l[0] + 1) // (2 * st.cf.q(st.stage_l[0]))


def test_empty_window_raises():
    cf = ContinuedFraction([2, 2] + [1] * 40)
    with pytest.raises(ConstructionError):
        StageConstruction(cf, ListedSet([]), n_stages=1)


def _replay(text):
    """Rebuild and re-solve a construction from its dump; the replay must match the dump."""
    payload = json.loads(text)
    assert payload["descriptor"] == "squares"
    obj = StageConstruction(ContinuedFraction(payload["quotients"]), AlmostSparseSet(),
                            n_stages=len(payload["stage_k"]),
                            include_h=payload["include_h"], mu_twist=payload["mu_twist"])
    assert obj.stage_k == payload["stage_k"]
    obj.solve_all()
    for rec in payload["stages"]:
        assert np.allclose(obj._stages[rec["n"]]["L_window"], rec["L_window"], rtol=1e-12, atol=0)
    return obj


def test_json_roundtrip(solved):
    fh = io.StringIO()
    solved.write_json(fh)
    text = fh.getvalue()
    replay = _replay(text)
    assert replay.stage_k == solved.stage_k
    for n in range(1, solved.solved() + 1):
        assert replay._stages[n]["L_window"] == pytest.approx(solved._stages[n]["L_window"])


def test_stage_order_enforced():
    st = counterexample_stages(n_stages=2)
    from skewlab.errors import StateError

    with pytest.raises(StateError):
        st.solve_stage(2)


def test_denjoy_koksma_on_ramp_handle(solved):
    # the DK gap of a bounded-variation sawtooth stays under its variation
    from lemmas import denjoy_koksma_gap

    st = solved
    f1 = st.f(1)
    k = st.stage_k[0]
    q, q1 = st.cf.q(k), st.cf.q(k + 1)
    var = sum(2 * f1.L_of_s(w) / q1 for w in range(q))  # up+down per cell
    grid = np.arange(1 << 16) / (1 << 16)
    mean = float(np.mean(ramp_eval(f1, grid)))
    for dk in (4, 6):
        gap = denjoy_koksma_gap(lambda xs: ramp_eval(f1, xs), st.cf.q(dk), 0.3, st.cf, mean=mean)
        assert gap <= var + 1e-6
