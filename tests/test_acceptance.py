"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from skewlab import calibration
from skewlab.diophantine import ContinuedFraction
from skewlab.presets import counterexample_stages, phase_pair, prime_pair


def _report(num, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {tag} {name} {detail}")
    assert passed, f"criterion {num}: {name} {detail}"


# -- 1. exact identity suite -------------------------------------------------


def test_criterion_01_identity_suite():
    from lemmas import von_mangoldt
    from skewlab.identities import (buchstab_check, heathbrown_coeff_check, linnik_check,
                                    vaughan_decompose)

    t0 = time.time()
    n_max = 10**4
    for z in (1, 2, 5, 10, 30):
        for n in range(z + 1, n_max + 1):
            *_, tot = vaughan_decompose(n, z)
            assert tot == von_mangoldt(n), ("vaughan", n, z)
    for z in (1, 2, 10):
        for n in range(2, n_max + 1):
            lhs, rhs = linnik_check(n, z)
            assert lhs == rhs, ("linnik", n, z)
    for k in (1, 2, 3):
        z = math.ceil(n_max ** (1.0 / k))
        assert heathbrown_coeff_check(k, z, n_max) == 0.0, ("heath-brown", k)
    rng = np.random.default_rng(1)
    for _ in range(100):
        lo = int(rng.integers(1, 10**6 - 10**4))
        length = int(rng.integers(10, 10**4))
        w = int(rng.integers(2, 80))
        z = w + int(rng.integers(0, 200))
        lhs, rhs = buchstab_check((lo, lo + length), w, z)
        assert lhs == rhs, ("buchstab", lo, length, w, z)
    elapsed = time.time() - t0
    _report(1, "identity suite exact", elapsed < 120, f"({elapsed:.0f}s)")


# -- 2. cocycle identity -----------------------------------------------------


def test_criterion_02_cocycle_identity():
    from skewlab.cocycle import birkhoff_closed, birkhoff_direct

    cf, g, _ = prime_pair()
    rng = np.random.default_rng(2)
    worst_id = worst_pair = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 10**4))
        m = int(rng.integers(1, 10**4))
        x = float(rng.random())
        lhs = birkhoff_closed(g, cf, n + m, x)
        rhs = birkhoff_closed(g, cf, n, x) + birkhoff_closed(g, cf, m, x, orbit_shift=n)
        worst_id = max(worst_id, abs(lhs - rhs))
        if i % 25 == 0:  # 40 direct-vs-closed cross-checks inside the loop
            worst_pair = max(worst_pair, abs(birkhoff_direct(g, cf, n, x)
                                             - birkhoff_closed(g, cf, n, x)))
    _report(2, "cocycle identity + closed vs direct",
            worst_id < 1e-9 and worst_pair < 1e-8,
            f"(identity {worst_id:.2e}, routes {worst_pair:.2e})")


# -- 3. convergent laws ------------------------------------------------------


def test_criterion_03_convergent_laws():
    from fractions import Fraction

    test_alphas = [
        [1] * 25,                               # golden
        [2] * 25,                               # silver
        [1, 2, 3, 4, 5] * 5,                    # mixed
        [3, 7, 15, 1, 292, 1, 1, 1, 2, 1] * 3,  # pi-like prefix
        [2, 5, 1, 40, 1, 1, 10**6, 1, 1, 1, 10**12] + [1] * 12,  # Liouville-type
    ]
    ok = True
    for quo in test_alphas:
        cf = ContinuedFraction(quo)
        assert cf.max_index() >= 20
        cf.check_laws()
        for k in range(2, cf.max_index() - 1):
            try:
                d = cf.dist_to_integers(cf.q(k))
            except Exception:
                ok = False
                break
            lo = Fraction(1, 2 * cf.q(k + 1))
            hi = Fraction(1, cf.q(k + 1))
            if not lo <= d <= hi:
                ok = False
    _report(3, "convergent laws for 5 alphas, depth >= 20", ok)


# -- 4. phase approximation decay -------------------------------------------


def test_criterion_04_phase_decay():
    from skewlab.phase_approx import build_phase_poly, polap_error

    t0 = time.time()
    cf, g, params, red = phase_pair()
    polys = {}
    bounds_ok = True
    for n in (1, 2, 3, 4):
        P = build_phase_poly(red, cf, n, params)  # raises on any bound breach
        polys[n] = P
        for stated, sampled in P.bounds:
            if sampled > stated * (1 + 1e-9):
                bounds_ok = False
    xs = np.arange(64) / 64
    errs = {}
    for n in (1, 2, 3, 4):
        mmax = float(cf.q(n + 1)) ** (1 - params.delta)
        ms = np.unique(np.logspace(0, math.log10(mmax), 10).astype(np.int64))
        errs[n] = max(polap_error(g, polys[n], float(x), int(m), 1, cf, params)
                      for m in ms for x in xs)
    decay = errs[3] < errs[1] and errs[4] < errs[2]
    elapsed = time.time() - t0
    _report(4, "polap decay + coefficient bounds",
            decay and bounds_ok and elapsed < 300,
            f"(errors {errs[1]:.2e} > {errs[3]:.2e}, {errs[2]:.2e} > {errs[4]:.2e}, {elapsed:.0f}s)")


# -- 5. character algebra ----------------------------------------------------


def test_criterion_05_character_algebra():
    from skewlab.char_sums import build_characters, gauss_sum

    worst_orth = 0.0
    for q in range(2, 501):
        worst_orth = max(worst_orth, build_characters(q).orthogonality_defect())
    assert worst_orth < 1e-9
    worst_gauss = 0.0
    worst_period = 0.0
    for e in range(3, 2001):
        tab = build_characters(e)
        rows = [(chi, chi.values()) for chi in tab if not chi.is_principal()]
        for chi, vals in rows:
            worst_period = max(worst_period, abs(np.sum(vals)))
            if chi.is_primitive():
                gs = abs(gauss_sum(chi, 1))
                worst_gauss = max(worst_gauss, abs(gs - math.sqrt(e)))
    _report(5, "orthogonality/Gauss/full-period",
            worst_orth < 1e-9 and worst_gauss < 1e-9 and worst_period < 1e-9,
            f"(orth {worst_orth:.1e}, gauss {worst_gauss:.1e}, period {worst_period:.1e})")


# -- 6. progression character statistic --------------------------------------


def test_criterion_06_progression_stat_calibrated():
    from skewlab.char_sums import build_characters, progression_char_stat
    from skewlab.primes import divisor_count_k

    small_q, big_q, rng = calibration.char_progression_sample()
    worst = 0.0
    any_nontrivial = False
    for q in small_q + big_q:
        tab = build_characters(q)
        chars = [c for c in tab if not c.is_principal()]
        if q > 1000:
            idx = rng.choice(len(chars), size=min(20, len(chars)), replace=False)
            chars = [chars[i] for i in idx]
        dq = divisor_count_k(2, q)
        for r in (2, 3, 5, 7):
            if math.gcd(r, q) != 1:
                continue
            denom = math.sqrt(r * q) * dq * math.log(q)
            for chi in chars:
                ratio = progression_char_stat(q, r, chi) / denom
                worst = max(worst, ratio)
                if ratio >= 1e-3:
                    any_nontrivial = True
    _report(6, "progression stat within calibrated constant",
            worst <= calibration.CHAR_PROGRESSION_RATIO and any_nontrivial,
            f"(max ratio {worst:.4f} <= {calibration.CHAR_PROGRESSION_RATIO})")


# -- 7. huxley statistic decay ----------------------------------------------


def _largest_prime_below(n):
    from skewlab.primes import primes_in

    return int(primes_in(2, n)[-1])


def test_criterion_07_huxley_decay():
    from skewlab.char_sums import huxley_stat_progressions

    t0 = time.time()
    ratios = {}
    for x in (10**5, 10**7):
        q = _largest_prime_below(int(x ** (5 / 6 - 0.01)))
        r = int(q**0.9)
        while math.gcd(r, q) != 1:
            r -= 1
        res = huxley_stat_progressions(x, x, q, r)
        ratios[x] = res["value"] / x
    elapsed = time.time() - t0
    _report(7, "huxley H=x two-scale decay",
            ratios[10**7] < ratios[10**5] and elapsed < 600,
            f"(value/x: {ratios[10**5]:.4f} -> {ratios[10**7]:.4f}, {elapsed:.0f}s)")


# -- 8. window count law -----------------------------------------------------


def test_criterion_08_window_count_law():
    from skewlab.char_sums import window_coprime_count

    rng = np.random.default_rng(8)
    ok = True
    worst = 0.0
    for _ in range(50):
        qp = int(rng.integers(100, 10**6))
        H = math.ceil(math.sqrt(qp))
        y = int(rng.integers(0, qp))
        res = window_coprime_count(qp, y, H)
        tol = max(50.0, 0.02 * res["expected"])
        worst = max(worst, res["gap"] / tol)
        ok &= res["gap"] <= tol
    _report(8, "coprime window counts", ok, f"(worst gap/tol {worst:.2f})")


# -- 9. prime equidistribution desk scale -------------------------------------


def test_criterion_09_prime_average_decay():
    from skewlab.skew_dynamics import Observable, SkewProduct, prime_weighted_averages

    t0 = time.time()
    cf, g, _ = prime_pair()
    T = SkewProduct(cf, g)
    ok = True
    details = []
    fs = [Observable(b, c) for b, c in ((0, 1), (1, 1), (0, 2))]
    averages = prime_weighted_averages(T, fs, (10**5, 10**7), 0.0, 0.0)  # one pass
    for f in fs:
        a5, a7 = averages[f, 10**5][0], averages[f, 10**7][0]
        ok &= abs(a7) < abs(a5) and abs(a7) < 0.2
        details.append(f"({f.b},{f.c}): {abs(a5):.4f}->{abs(a7):.4f}")
    elapsed = time.time() - t0
    _report(9, "prime averages decay and stay < 0.2", ok and elapsed < 900,
            f"({'; '.join(details)}, {elapsed:.0f}s)")


# -- 10. reduced-residue averages ---------------------------------------------


def test_criterion_10_reduced_residue_decay():
    from skewlab.skew_dynamics import Observable, SkewProduct, reduced_residue_average

    cf, g, _ = prime_pair()
    T = SkewProduct(cf, g)
    vals = []
    for n in (1, 2, 3):
        z = cf.q(n)
        vals.append(abs(reduced_residue_average(T, Observable(0, 1), z, z, 0.0, 0.0)))
    _report(10, "reduced-residue averages decrease",
            vals[0] > vals[1] > vals[2],
            "(" + " > ".join(f"{v:.4f}" for v in vals) + ")")


# -- 11. counterexample stages -------------------------------------------------


def test_criterion_11_counterexample_stages():
    t0 = time.time()
    st = counterexample_stages(n_stages=3)
    st.solve_all()
    phi_ok = True
    bumps = []
    for n in (1, 2, 3):
        st.check_invariants(n)
        rep = st.verify_phi(n, eps=0.05)
        phi_ok &= rep["passed"]
        bumps.append(st.bump_average(n))
    alternate = bumps[0] > 0.9 and bumps[1] < 0.1 and bumps[2] > 0.9
    elapsed = time.time() - t0
    _report(11, "counterexample stages verified",
            phi_ok and alternate and elapsed < 600,
            f"(bumps {bumps[0]:.3f}/{bumps[1]:.3f}/{bumps[2]:.3f}, {elapsed:.0f}s)")


# -- 12. nr4 collapse checks ---------------------------------------------------


def test_criterion_12_ms_collapse():
    from skewlab.poly_prime_sums import ShiftedPoly, ms_gap
    from skewlab.primes import chebyshev_theta

    N = 10**7
    H = int(N**0.7)
    gap, _ = ms_gap(N, H, 1, 0, ShiftedPoly(N, ()), 0.05)
    defect = abs((chebyshev_theta(N + H) - chebyshev_theta(N)) - (H + 1))
    exact_match = abs(gap - defect) < 1e-6 * max(1.0, defect)
    with pytest.warns(UserWarning):
        gap_adv, _ = ms_gap(N, H, 1, 0, ShiftedPoly(N, (0.5,)), 0.05)
    adversarial = gap_adv > 0.5 * H
    _report(12, "nr4 collapse: PNT defect exact, adversarial gap ~ H",
            exact_match and adversarial,
            f"(gap {gap:.1f} = defect {defect:.1f}; adversarial {gap_adv:.0f} vs H {H})")


# -- 13. CLI determinism --------------------------------------------------------


def test_criterion_13_cli_determinism(tmp_path, monkeypatch):
    from skewlab.cli import main

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    blobs = {}
    for run in (1, 2):
        for cmd, name in [
            (["identities", "--n_max", "300", "--z", "2", "--k", "1",
              "--buchstab_windows", "3"], "identities"),
            (["prime-average", "--N", "1e4,1e5", "--b", "0", "--c", "1"], "prime-average"),
            (["discrepancy", "--N", "1e3", "--K", "20"], "discrepancy"),
            (["cf", "--quotients", "2,2,2,2", "--depth", "4"], "cf"),
        ]:
            out = tmp_path / f"{name}-{run}.json"
            assert main(cmd + ["--out", str(out)]) == 0
            blobs.setdefault(name, []).append(out.read_bytes())
    ok = all(a == b for a, b in blobs.values())
    _report(13, "CLI byte-identical across reruns", ok)
