import math
from fractions import Fraction

import numpy as np
import pytest

from skewlab.counterexample import (AlmostSparseSet, RampFunction, StageConstruction,
                                    TentFunction, eps_n)
from skewlab.diophantine import cf_from_quotients
from skewlab.errors import ConstructionError, InvalidInputError, PreconditionError
from skewlab.presets import counterexample_stages


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
        assert st.birkhoff0(w) == _oracle_birkhoff0(st, w, st.solved())
    assert st.f(1) is st.f(1)


def test_float_path_residue_is_exact(solved3):
    # at stage 3 the residue product j * p^-1 mod q leaves int64
    f = solved3.f(3)
    assert (f.q - 1) * f.p_inv >= 2**63
    xs = np.random.default_rng(7).random(2000)
    exact = np.array([f.eval_frac(Fraction(x)) for x in xs])
    assert np.max(np.abs(f.eval(xs) - exact)) < 1e-3


def test_squares_descriptor_windows():
    A = AlmostSparseSet("squares")
    assert A.elements_in(1, 100) == [1, 4, 9, 16, 25, 36, 49, 64, 81, 100]
    assert A.bad_set(100) == set()
    # consecutive gaps grow along windows
    gaps_low = np.diff(A.elements_in(1, 100))
    gaps_high = np.diff(A.elements_in(10**4, 2 * 10**4))
    assert gaps_high.min() > gaps_low.max()


def test_primes_descriptor_gap_filter():
    A = AlmostSparseSet("primes")
    N = 10**4
    surv = A.window(0, N)
    c = A.gap_filter(N)
    assert min(np.diff(surv)) > c
    bad = A.bad_set(N)
    assert len(bad) / len(A.elements_in(1, N)) < 0.5


def test_eps_n_examples():
    A = AlmostSparseSet("squares")
    assert eps_n(A, 100) == Fraction(1, 3)  # gap 4 - 1 = 3
    toy = AlmostSparseSet("custom",
                          elements_in=lambda lo, hi: [n for n in (1, 10, 100) if lo <= n <= hi],
                          bad_set=lambda N: set())
    assert eps_n(toy, 100) == Fraction(1, 9)
    tiny = AlmostSparseSet("custom", elements_in=lambda lo, hi: [1], bad_set=lambda N: set())
    with pytest.raises(InvalidInputError):
        eps_n(tiny, 100)


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
    assert np.allclose(f.eval(xs), exact, rtol=1e-6, atol=1e-9)


def test_tent_function():
    h = TentFunction(7)
    assert h.eval_frac(Fraction(3, 7)) == 0.0
    assert h.eval_frac(Fraction(3, 7) + Fraction(1, 14)) == 1.0
    xs = np.linspace(0, 1, 101)
    assert np.allclose(h.eval((xs + 1 / 7) % 1.0), h.eval(xs), atol=1e-12)
    assert h.variation == 14
    assert abs(np.mean(h.eval(np.arange(7000) / 7000)) - 0.5) < 1e-3


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


def test_continuity_certificate_decays(solved):
    rows = solved.continuity_certificate()
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
        direct = sum(st.g_truncated(float((j * st.cf.value) % 1)) for j in range(k))
        assert direct == pytest.approx(st.birkhoff0(k), abs=1e-8)


def test_g_truncated_at_zero(solved):
    # x = 0: S_1 = g(0) = sum f_n(alpha), since f_n(0) = 0
    st = solved
    total = sum(st.f(n).eval_frac(st.cf.value % 1) for n in range(1, st.solved() + 1))
    assert st.g_truncated(0.0) == pytest.approx(total, abs=1e-9)
    assert st.g_truncated(0.0, upto=0) == 0.0


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
    diag = st.rigidity_distribution_gap(1)
    assert 0 < diag["mean_distance_to_nearest_constant"] <= 0.25 + 1e-9
    assert diag["K"] == st.cf.q(st.stage_l[0] + 1) // (2 * st.cf.q(st.stage_l[0]))


def test_empty_window_raises():
    cf = cf_from_quotients([2, 2] + [1] * 40)
    lacunary = AlmostSparseSet("custom", elements_in=lambda lo, hi: [],
                               bad_set=lambda N: set())
    with pytest.raises(ConstructionError):
        StageConstruction(cf, lacunary, n_stages=1)


def test_json_roundtrip(solved):
    text = solved.to_json()
    replay = StageConstruction.from_json(text)
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
    from skewlab.cocycle import denjoy_koksma_gap

    st = solved
    f1 = st.f(1)
    k = st.stage_k[0]
    q, q1 = st.cf.q(k), st.cf.q(k + 1)
    var = sum(2 * f1.L_of_s(w) / q1 for w in range(q))  # up+down per cell
    grid = np.arange(1 << 16) / (1 << 16)
    mean = float(np.mean(f1.eval(grid)))
    for dk in (4, 6):
        gap = denjoy_koksma_gap(f1.eval, st.cf.q(dk), 0.3, st.cf, mean=mean)
        assert gap <= var + 1e-6
