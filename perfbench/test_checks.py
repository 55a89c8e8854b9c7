"""Each benchmark check accepts skewlab's answer and rejects a wrong one.

    python3 -m pytest -q perfbench/test_checks.py

The wrong answers are what a real fault would produce: a prime source that
drops one prime, a conjugated character row, an identity coordinate off by
one, the cubic phase that frac01_poly_dd gets wrong.  Sizes are small; the
suite takes a few seconds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
os.environ["SKEWLAB_BACKEND"] = "numpy"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from skewlab import char_sums, identities, poly_prime_sums, skew_dynamics  # noqa: E402
from skewlab.presets import prime_pair  # noqa: E402
from skewlab.primes import PrimeSource  # noqa: E402


class DroppingSource(PrimeSource):
    """A prime source that silently loses one prime."""

    def __init__(self, dropped):
        super().__init__()
        self.dropped = dropped

    def primes_in(self, lo, hi):
        out = super().primes_in(lo, hi)
        return out[out != self.dropped]


# -- primes and prime_orbits --------------------------------------------------


def test_sieves_agree_and_hit_the_spot_value():
    ps = checks.plain_sieve(5 * 10**7)
    assert len(ps) == 3_001_134
    lo, hi = 49_990_000, 5 * 10**7
    assert np.array_equal(checks.window_primes(lo, hi), ps[ps >= lo])


def test_prime_count_and_theta_reject_a_dropped_prime():
    N = 10**5
    ps = checks.plain_sieve(N)
    pi_n, theta_n = len(ps), checks.theta(ps)
    cf, g, _ = prime_pair()
    T = skew_dynamics.SkewProduct(cf, g)
    f = skew_dynamics.Observable(0, 1)
    for source, ok in ((PrimeSource(), True), (DroppingSource(7919), False)):
        counting = workloads.CountingSource(source)
        _, theta_ratio = skew_dynamics.prime_weighted_average(T, f, N, 0.3, 0.7, primes=counting)
        assert (checks.check_prime_count(counting.drawn, pi_n) is None) == ok
        assert (checks.check_close(theta_ratio, theta_n / N, theta_n / N, "theta")
                is None) == ok


def test_subsample_average_rejects_a_dropped_prime():
    N = 10**6
    cf, g, _ = prime_pair()
    T = skew_dynamics.SkewProduct(cf, g)
    sub = checks.window_primes(N - 3000, N)
    freqs, amps = [int(m) for m in g.freqs], [complex(a) for a in g.amps]
    x, y, b, c = 0.613, 0.271, 1, 1
    want, scale = checks.exact_orbit_average(cf.value, freqs, amps, sub, N, x, y, b, c)
    tol = checks.orbit_tolerance(cf.value, freqs, amps, x, b, c)
    assert tol < 1e-5
    f = skew_dynamics.Observable(b, c)
    for primes, ok in ((sub, True), (sub[1:], False)):
        got, _ = skew_dynamics.prime_weighted_average(
            T, f, N, x, y, primes=workloads.FixedSource(primes, N))
        assert (checks.check_close(got, want, scale, "subsample", rel=tol) is None) == ok


def test_orbit_bound():
    assert checks.check_orbit_bound(0.19 + 0.0j) is None
    assert checks.check_orbit_bound(0.15 + 0.15j) is not None


# -- prime_windows --------------------------------------------------------------


def test_degree_zero_gap_rejects_a_dropped_prime():
    N, H = 10**6, 1000
    want, scale = checks.exact_ms_gap(N, H, [], 64)
    g = poly_prime_sums.ShiftedPoly(N, ())
    for source, ok in ((PrimeSource(), True), (DroppingSource(1_000_003), False)):
        gap, _ = poly_prime_sums.ms_gap(N, H, 1, 0, g, 0.05, primes=source)
        assert (checks.check_close(gap, want, scale, "gap") is None) == ok


def test_polynomial_gap_accepts_exact_phases_and_rejects_the_negative_cubic():
    N, H, K = workloads.PrimeWindows.NEGATIVE_CUBIC
    for numerators, ok in ((K[:2] + (-K[2],), True), (K, False)):
        g = poly_prime_sums.ShiftedPoly(N, tuple(k / 2.0**64 for k in numerators))
        gap, _ = poly_prime_sums.ms_gap(N, H, 1, 0, g, 0.05)
        want, scale = checks.exact_ms_gap(N, H, numerators, 64)
        assert (checks.check_close(gap, want, scale, "gap") is None) == ok


def test_dyadic_phases_are_exact():
    K, d = [3 << 60, 12345678901, -987654321], np.array([0, 7, 99_999, 2**17 + 3])
    exact = [float(sum(Fraction(k, 2**64) * int(v) ** (i + 1) for i, k in enumerate(K)) % 1)
             for v in d]
    assert checks.dyadic_phases(K, 64, d).tolist() == exact


def test_sliding_l1_rejects_a_dropped_prime():
    x, H, q, r = 3000, 300, 97, 7
    ps = checks.plain_sieve(x + H)
    want = checks.class_cumsum_l1(ps, x, H, q, r)
    low, high = checks.sliding_l1_bounds(ps, x, H)
    for source, ok in ((PrimeSource(), True), (DroppingSource(1009), False)):
        value = char_sums.huxley_stat_progressions(x, H, q, r, primes=source)["value"]
        assert checks.check_between(value, low, high, "bounds") is None
        assert (checks.check_close(value, want, want, "L1") is None) == ok
    assert checks.check_between(low * 0.99, low, high, "bounds") is not None
    assert checks.check_between(high * 1.01, low, high, "bounds") is not None


def test_window_sup_bounds_reject_values_outside():
    x, q, r, Hp = 10**4, 101, 3, 3
    low, high = checks.window_sup_bounds(checks.plain_sieve(x), x, q, r, Hp)
    value = char_sums.huxley_stat_windows(x, x, q, r, Hp)["value"]
    assert low < high
    assert checks.check_between(value, low, high, "windows") is None
    assert checks.check_between(low * 0.99, low, high, "windows") is not None
    assert checks.check_between(high * 1.01, low, high, "windows") is not None


# -- characters -------------------------------------------------------------------


def _table(q, x=1):
    tab = char_sums.build_characters(q)
    rows, gauss, n_chars, n_primitive = [], [], 0, 0
    for chi in tab:
        n_chars += 1
        if chi.is_principal():
            continue
        rows.append(chi.values())
        if chi.is_primitive():
            n_primitive += 1
            gauss.append(abs(char_sums.gauss_sum(chi, x)))
    rows = np.array(rows)
    quadratic = [row.real for row in rows if np.max(np.abs(row.imag)) < 1e-9]
    return rows, n_chars, n_primitive, gauss, quadratic


@pytest.mark.parametrize("q", [13, 20, 1024, 1155])
def test_character_rows_accept_the_table(q):
    rows, n, n_prim, gauss, quad = _table(q)
    prime = checks.factor(q) == {q: 1}
    assert checks.check_character_rows(q, rows, n, n_prim, gauss, quad if prime else None) is None


def test_character_rows_reject_wrong_answers():
    q = 13
    rows, n, n_prim, gauss, quad = _table(q, x=5)
    ok = checks.check_character_rows(q, rows, n, n_prim, gauss, quad)
    assert ok is None
    complex_row = next(i for i, row in enumerate(rows) if np.max(np.abs(row.imag)) > 0.1)
    conjugated = rows.copy()
    conjugated[complex_row] = conjugated[complex_row].conj()
    changed = rows.copy()
    changed[0, 2] *= -1
    wrong = [
        (conjugated, n, n_prim, gauss, quad),
        (changed, n, n_prim, gauss, quad),
        (rows, n - 1, n_prim, gauss, quad),
        (rows, n, n_prim + 1, gauss, quad),
        (rows, n, n_prim, gauss[:-1] + [gauss[-1] + 1e-6], quad),
        (rows, n, n_prim, gauss, [-quad[0]]),
        (rows, n, n_prim, gauss, []),
    ]
    for case in wrong:
        assert checks.check_character_rows(q, *case) is not None


def test_primitive_count_formula():
    def brute(q):
        return sum(chi.is_primitive() for chi in char_sums.build_characters(q))
    for q in (9, 12, 16, 45, 49, 60):
        assert checks.primitive_count(q) == brute(q)


def test_orthogonality_check():
    check = workloads.Characters._check_orthogonality
    assert check(12, 1e-13, 4) is None
    assert check(12, 1e-8, 4) is not None
    assert check(12, 1e-13, 3) is not None


def test_progression_parseval_rejects_wrong_stats():
    q, r = 31, 3
    stats = [char_sums.progression_char_stat(q, r, chi)
             for chi in char_sums.build_characters(q) if not chi.is_principal()]
    assert checks.check_progression_parseval(stats, q, r) is None
    assert checks.check_progression_parseval([0.0] * len(stats), q, r) is not None
    assert checks.check_progression_parseval([3 * s for s in stats], q, r) is not None


def test_twisted_stat_bounds():
    q, Hp = 101, 3
    chi = next(c for c in char_sums.build_characters(q) if c.order() == 2)
    value = char_sums.windowed_twisted_stat(q, Hp, chi)["value"]
    low, high = checks.twisted_stat_bounds(q, Hp)
    assert checks.check_between(value, low, high, "twisted") is None
    assert checks.check_between(low * 0.99, low, high, "twisted") is not None
    assert checks.check_between(high * 1.01, low, high, "twisted") is not None


# -- exact_constructions -------------------------------------------------------------


def test_vaughan_total_rejects_a_coordinate_off_by_one():
    for n in (49, 97, 360):
        total = identities.vaughan_decompose(n, 2)[3].coords
        want = checks.von_mangoldt_coords(n)
        assert checks.check_equal(total, want, "vaughan") is None
        off = dict(want) if want else {2: Fraction(0)}
        p = next(iter(off))
        off[p] += 1
        assert checks.check_equal(total, off, "vaughan") is not None


def test_linnik_sides():
    for n, z in ((27, 2), (12, 2), (7, 10)):
        sides = identities.linnik_check(n, z)
        want = checks.linnik_rhs(n, z)
        assert checks.check_equal(sides, (want, want), "linnik") is None
        assert checks.check_equal(sides, (want + 1, want), "linnik") is not None


def test_buchstab_counts():
    lo, hi, w, z = 1000, 1600, 3, 40
    sides = identities.buchstab_check((lo, hi), w, z)
    want = checks.sifted_count(lo, hi, z)
    assert checks.check_equal(sides, (want, want), "buchstab") is None
    assert checks.check_equal(sides, (want + 1, want + 1), "buchstab") is not None


def test_stage_checks():
    assert checks.check_equal(0.0, 0.0, "heath-brown") is None
    assert checks.check_equal(1.0, 0.0, "heath-brown") is not None
    assert checks.check_phi(1, True) is None
    assert checks.check_phi(1, False) is not None
    assert checks.check_bump(1, 0.95) is None and checks.check_bump(2, 0.05) is None
    assert checks.check_bump(1, 0.5) is not None and checks.check_bump(2, 0.5) is not None


# -- harness -------------------------------------------------------------------------


def test_tracer_self_times_add_up_and_uninstall_restores():
    before = skew_dynamics.frac01_int_mult
    cf, g, _ = prime_pair()
    T = skew_dynamics.SkewProduct(cf, g)
    tr = tracer.Tracer()
    tr.install()
    try:
        skew_dynamics.prime_weighted_average(T, skew_dynamics.Observable(1, 1), 10**5, 0.1, 0.2)
    finally:
        tr.uninstall()
    assert skew_dynamics.frac01_int_mult is before
    assert tr.calls["skew_dynamics.prime_weighted_average"] == 1
    assert tr.calls["dd.frac01_int_mult"] == 1 + len(g.freqs)
    assert math.isclose(sum(tr.self_s.values()), tr.top_s, rel_tol=1e-9)
    m = tr.metrics(tr.top_s)
    assert m["primes.resieve_ratio"] == 1.0
    assert m["trace.unattributed_s"] == 0.0


def test_only_the_documented_fault_keeps_a_run_correct():
    wl = workloads.PrimeWindows(1)
    (op,) = [op for op in wl.operations() if op.fault is not None]
    N, H, K = wl.NEGATIVE_CUBIC
    want, scale = checks.exact_ms_gap(N, H, K, 64)
    oracle = {("ms", "negative cubic"): (want, scale)}
    raised = run.Failure(RuntimeError("boom"))
    assert run.verdict([(op, op.compute())], oracle) == (1, 0)  # fails as documented
    assert run.verdict([(op, want)], oracle) == (0, 0)  # the fault is fixed
    assert run.verdict([(op, want + 1e-3)], oracle) == (1, 1)  # a new error
    assert run.verdict([(op, raised)], oracle) == (1, 1)
    plain = op._replace(fault=None)
    assert run.verdict([(plain, want), (plain, raised)], oracle) == (1, 1)


def test_benchmark_json_names_what_the_harness_measures():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    traced = set(tracer.Tracer().metrics(1.0)) | {"trace.untraced_wall_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= traced
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "characters",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
