import math
import threading
import time
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import birkhoff_prefix, nazarov_small_set, nazarov_translate_count
from skewlab import cocycle, skew_dynamics
from skewlab.cocycle import AnalyticCocycle, TrigPoly, orbit_angles
from skewlab.dd import dd_from_fraction, e, frac01_int_mult
from skewlab.diophantine import ContinuedFraction
from skewlab.errors import InvalidInputError, PrecisionError, RangeError, ResourceError
from skewlab.presets import prime_pair
from skewlab.primes import (DEFAULT_LIMIT, SEGMENT_SIZE, chebyshev_theta, default_source,
                            euler_phi, prime_windows, primes_in)
from skewlab.skew_dynamics import (Observable, SkewProduct, _fiber_gather, _fiber_tables,
                                   _fiber_terms, _orbit_sums, _table_index, _window_tables,
                                   exact_star_discrepancy, prime_weighted_average,
                                   prime_weighted_averages, reduced_residue_average,
                                   star_discrepancy_bound, weyl_sum)


@pytest.fixture(scope="module")
def T():
    cf, g, _ = prime_pair()
    return SkewProduct(cf, g)


def test_iterate_identity_and_zero_cocycle():
    cf = ContinuedFraction([1, 2, 3, 4, 5] * 4)
    g0 = AnalyticCocycle({}, 0.095)
    T = SkewProduct(cf, g0)
    x, y = 0.3, 0.6
    assert T.iterate(0, x, y) == (x, y)
    xn, yn = T.iterate(57, x, y)
    assert yn == y  # zero cocycle leaves the fiber alone
    assert xn == pytest.approx((x + float(cf.frac01(57))) % 1.0)


def test_iterate_single_step_definition(T):
    x, y = 0.21, 0.68
    x1, y1 = T.iterate(1, x, y)
    assert x1 == pytest.approx((x + float(T.cf.value)) % 1.0, abs=1e-12)
    assert y1 == pytest.approx((y + float(T.g.eval(x))) % 1.0, abs=1e-12)


def _iterate_stepwise(T, n, x, y):
    """Oracle: T applied n times step by step (rounding accumulates)."""
    alpha = float(T.cf.value)
    for _ in range(n):
        y = (y + float(T.g.eval(x))) % 1.0
        x = (x + alpha) % 1.0
    return x, y


def test_iterate_matches_stepwise():
    # modest cocycle so the stepwise oracle's own rounding stays under 1e-8
    cf = ContinuedFraction([1, 2, 3, 4, 5] * 4)
    g = AnalyticCocycle({2: 0.2, 5: 0.1}, 0.095)
    T = SkewProduct(cf, g)
    a = T.iterate(1000, 0.2, 0.7)
    b = _iterate_stepwise(T, 1000, 0.2, 0.7)
    assert abs(a[0] - b[0]) < 1e-8 and abs(a[1] - b[1]) < 1e-8


def test_semigroup_property(T):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = (int(v) for v in rng.integers(1, 2000, 2))
        x, y = rng.random(2)
        p1 = T.iterate(m, *T.iterate(n, x, y))
        p2 = T.iterate(n + m, x, y)
        dx = min(abs(p1[0] - p2[0]), 1 - abs(p1[0] - p2[0]))
        dy = min(abs(p1[1] - p2[1]), 1 - abs(p1[1] - p2[1]))
        assert dx + dy < 1e-9


def test_prime_average_constant_observable(T):
    avg, theta_ratio = prime_weighted_average(T, Observable(0, 0), 10**5, 0.1, 0.2)
    assert avg == pytest.approx(theta_ratio)
    assert theta_ratio == pytest.approx(chebyshev_theta(10**5) / 10**5)


def test_prime_average_zero_cocycle_direct_loop():
    cf = ContinuedFraction([1, 2, 3, 4, 5] * 4)
    g0 = AnalyticCocycle({}, 0.095)
    T = SkewProduct(cf, g0)
    N = 20000
    avg, _ = prime_weighted_average(T, Observable(1, 0), N, 0.0, 0.0)
    alpha = float(cf.value)
    direct = sum(math.log(p) * complex(math.cos(2 * math.pi * p * alpha),
                                       math.sin(2 * math.pi * p * alpha))
                 for p in primes_in(2, N).tolist()) / N
    assert abs(avg - direct) < 1e-6


def test_prime_average_two_scale_decay(T):
    a_small, _ = prime_weighted_average(T, Observable(0, 1), 10**5, 0.0, 0.0)
    a_big, _ = prime_weighted_average(T, Observable(0, 1), 10**6, 0.0, 0.0)
    assert abs(a_big) < abs(a_small)


def _table_fiber(terms, ks, y):
    """y_k for the ascending ks by the pass's route: tables up to max(ks), one gather each."""
    b0, tables = _window_tables(_fiber_tables(terms, int(ks[-1])), ks)
    return _fiber_gather(tables, *_table_index(b0, ks), y)


def _window_route_fiber(terms, ks, y):
    """Oracle: y_k from tables built for the window of ks alone, one frac01_int_mult and
    one e() per frequency on its block bases, every i << 11 and every j, and gathers from
    the strided real and imaginary views of the tables."""
    b0, b1 = int(ks.min()) >> 21, int(ks.max()) >> 21
    nb = b1 - b0 + 1
    parts = np.concatenate([np.arange(b0, b1 + 1) << 21, np.arange(1 << 10) << 11,
                            np.arange(1 << 11)])
    row, col = (ks >> 11) - (b0 << 10), ks & ((1 << 11) - 1)
    ys = np.full(ks.shape, float(y))
    for m_hi, m_lo, k2 in terms:
        t = e(frac01_int_mult(parts, m_hi, m_lo))
        K, L = np.outer(k2 * t[:nb], t[nb : -(1 << 11)]).ravel(), t[-(1 << 11) :]
        ys += K.real[row] * L.real[col] - K.imag[row] * L.imag[col] - k2.real
    return ys


def _whole_array_averages(T, fs, N, x, y):
    """Oracle for streaming: every prime <= N in one array, one np.sum per observable."""
    ps = primes_in(2, N)
    logp = np.log(ps.astype(np.float64))
    xs = orbit_angles(T.cf, ps, x)
    ys = _table_fiber(_fiber_terms(T, x), ps, y)
    theta_ratio = float(np.sum(logp)) / N
    return {f: complex(np.sum(e(f.b * xs + f.c * ys) * logp) / N) for f in fs}, theta_ratio


def _dd_route_fiber(T, ks, x, y):
    """Oracle: y_k by one frac01_int_mult and one e() over all of ks per frequency, with
    kappa_m's own e(m x) from the exact rational m x mod 1 and e(v) - 1 = -2 sin(pi v)**2
    + i sin(2 pi v), v = m alpha in (-1/2, 1/2], whose parts do not cancel."""
    cf, g = T.cf, T.g
    ys = np.full(ks.shape, float(y))
    for m, a in zip(g.freqs, g.amps):
        m = int(m)
        v = float(cf.frac_signed(m))
        denom = complex(-2 * math.sin(math.pi * v) ** 2, math.sin(2 * math.pi * v))
        m_hi, m_lo = dd_from_fraction(cf.frac01(m))
        ratio = (e(frac01_int_mult(ks, m_hi, m_lo)) - 1.0) / denom
        ys += 2.0 * ((a * e(float(Fraction(x) * m % 1))) * ratio).real
    return ys


def _exact_phase_fiber(T, ks, x, y):
    """Oracle: y_k from exact rational phases frac(k m alpha), rounded once to float."""
    ys = np.full(ks.shape, float(y))
    for (_, _, kappa2), m in zip(_fiber_terms(T, x), T.g.freqs):
        theta = T.cf.frac01(int(m))
        ang = 2 * math.pi * np.array([float(int(k) * theta % 1) for k in ks])
        ys += kappa2.real * (np.cos(ang) - 1.0) - kappa2.imag * np.sin(ang)
    return ys


BLOCK = 1 << 21


def _fiber_unit(T, x):
    """sum_m 2 |kappa_m| 2**-52: one ulp of the largest fiber sum."""
    return sum(abs(kappa2) for _, _, kappa2 in _fiber_terms(T, x)) * 2.0**-52


# per-point bound on |y_table - y_oracle| in units of _fiber_unit (935 = sum |kappa_m| for
# the prime pair at x = 0.37, so one unit is 4.2e-13).  Measured on 18 windows of the
# kind below (seeds 0-5 near 1e5, 1e7 and 1e9): table against the dd route at most 4.4
# units over every prime, against exact phases and against the long-double oracle at most
# 4.4 units on 300 sampled primes each; the dd route itself is 2.7 units from the latter.
FIBER_UNITS = 8


@pytest.mark.parametrize("near", [10**5, 10**7, 10**9])
def test_fiber_tables_match_dd_route_and_exact_phases(T, near):
    x, y = 0.37, 0.61
    rng = np.random.default_rng(near)
    lo = (near // BLOCK + 1) * BLOCK - int(rng.integers(1, BLOCK // 2))
    ps = primes_in(lo, lo + BLOCK)  # crosses the block boundary
    assert ps[0] < (near // BLOCK + 1) * BLOCK < ps[-1]
    got = _table_fiber(_fiber_terms(T, x), ps, y)
    bound = FIBER_UNITS * _fiber_unit(T, x)
    assert np.abs(got - _dd_route_fiber(T, ps, x, y)).max() <= bound
    pick = np.sort(rng.choice(len(ps), 600, replace=False))
    assert np.abs(got[pick] - _exact_phase_fiber(T, ps[pick], x, y)).max() <= bound


def _long_double(phases):
    """Exact rationals in long double: each one's float plus the float of the rest."""
    hi = [float(t) for t in phases]
    lo = [float(t - Fraction(h)) for t, h in zip(phases, hi)]
    return np.array(hi, dtype=np.longdouble) + np.array(lo, dtype=np.longdouble)


def _long_double_fiber(T, ks, x, y, dtype=np.float64):
    """Oracle apart from _fiber_terms and dd.e: every phase (m x, m alpha, k m alpha) an exact
    rational mod 1, every e() long-double cos and sin, y_k rounded to dtype once.  e(m alpha) - 1
    is -2 sin(pi v)**2 + i sin(2 pi v) with v = m alpha in (-1/2, 1/2]: no cancellation."""
    tau = 8 * np.arctan(np.longdouble(1))  # 2 pi in long double

    def ang(phases):  # 2 pi t in long double
        return tau * _long_double(phases)

    ys = np.full(ks.shape, np.longdouble(y))
    for m, a in zip(T.g.freqs.tolist(), T.g.amps):
        theta, v = T.cf.frac01(m), T.cf.frac_signed(m)
        px, pv, pk = ang([Fraction(x) * m % 1]), ang([v]), ang([int(k) * theta % 1 for k in ks])
        ar, ai = np.longdouble(a.real), np.longdouble(a.imag)
        nr, ni = ar * np.cos(px) - ai * np.sin(px), ar * np.sin(px) + ai * np.cos(px)
        dr, di = -2 * np.sin(pv / 2) ** 2, np.sin(pv)
        den = dr * dr + di * di
        kr, ki = (nr * dr + ni * di) / den, (ni * dr - nr * di) / den
        ys += 2 * (kr * (np.cos(pk) - 1) - ki * np.sin(pk))
    return ys.astype(dtype)


@pytest.mark.parametrize("near", [10**5, 10**7, 10**9])
def test_table_fiber_matches_long_double_phases(T, near):
    # the same bound against an oracle that shares no kappa_m with the table: a kappa_m built
    # on a float m x and on e(m alpha) - 1, whose real part cancels, put the fiber
    # 1.3e-9 to 1.9e-9 (3,000 to 4,600 units) from it
    x, y = 0.37, 0.61
    rng = np.random.default_rng(near + 1)
    lo = (near // BLOCK + 1) * BLOCK - int(rng.integers(1, BLOCK // 2))
    ps = primes_in(lo, lo + BLOCK)
    pick = ps[np.sort(rng.choice(len(ps), 300, replace=False))]
    got = _table_fiber(_fiber_terms(T, x), ps, y)[np.searchsorted(ps, pick)]
    assert np.abs(got - _long_double_fiber(T, pick, x, y)).max() <= FIBER_UNITS * _fiber_unit(T, x)


@pytest.mark.parametrize("near", [10**5, 10**7, 10**9])
def test_pass_tables_equal_window_tables(T, near):
    x, y = 0.37, 0.61
    terms = _fiber_terms(T, x)
    lo = (near // BLOCK + 1) * BLOCK - BLOCK // 3
    ps = primes_in(lo, lo + BLOCK)  # crosses the block boundary
    assert ps[0] < (near // BLOCK + 1) * BLOCK < ps[-1]
    want = _window_route_fiber(terms, ps, y)
    assert np.array_equal(_table_fiber(terms, ps, y), want)
    # tables up to 2e9, as a pass to the prime source's limit builds them
    b0, tables = _window_tables(_fiber_tables(terms, DEFAULT_LIMIT), ps)
    assert np.array_equal(_fiber_gather(tables, *_table_index(b0, ps), y), want)


def _pass_values(T, fs, ks, x, y):
    """{f: e_{b,c}(T^k(x,y)) per k of ks} by the pass's route, one single-index pass per k:
    each value depends on its own k alone, and a sum of one value is that value."""
    out = {f: [] for f in fs}
    for k in ks.tolist():
        sums, _ = _orbit_sums(T, fs, (k,), x, y, [(k, k, np.array([k]), np.ones(1))])
        for f in fs:
            out[f].append(sums[f, k])
    return {f: np.array(vals) for f, vals in out.items()}


def _long_double_values(T, f, ks, x, ys):
    """Oracle: (cos, sin) in long double of 2 pi (b x_k + c y_k), with b x_k = b (x + k alpha)
    an exact rational mod 1 and c y_k reduced mod 1 in long double, for the fiber ys of
    _long_double_fiber kept in long double."""
    t = f.c * ys
    t -= np.rint(t)
    t += _long_double([f.b * (Fraction(x) + int(k) * T.cf.value) % 1 for k in ks])
    return np.cos(_TAU_LD * t), np.sin(_TAU_LD * t)


# e(b x_k) from the rotation tables: e(b x) with its rounded phase (3.0 units of 2**-52),
# three table entries (4.6 each: frac01_int_mult's 2**-53 and dd.e's 2**-52 a component)
# and three complex products (1.1 each); then e(c y_k) (1.4 beyond the fiber's share) and
# its product with e(b x_k) (1.1): 22.6 units.  Measured on e(b x_k) alone at most 5.8, for
# b from -5 to 10**30 on prime windows near 1e5, 1e7, 1e9 and 2e9
TURN_UNITS = 24


def _point_bound(T, f, x):
    """The stated per-point bound of e(b x_k + c y_k): 2 pi |c| times the fiber bound, plus
    TURN_UNITS units of 2**-52."""
    return 2 * math.pi * abs(f.c) * FIBER_UNITS * _fiber_unit(T, x) + TURN_UNITS * 2.0**-52


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the oracle needs a long double with a 64-bit significand")
@pytest.mark.parametrize("near", [10**5, 10**7, 10**9])
def test_pass_values_within_point_bound_of_long_double_oracle(T, near):
    x, y = 0.37, 0.61
    fs = [Observable(1, 1), Observable(-1, 3), Observable(2, -1)]
    rng = np.random.default_rng(near + 2)
    edge = (near // BLOCK + 1) * BLOCK
    ps = primes_in(edge - int(rng.integers(1, BLOCK // 2)), edge + BLOCK // 2)
    pick = ps[np.sort(rng.choice(len(ps), 200, replace=False))]
    assert pick[0] < edge < pick[-1]  # the points cross the block edge
    got = _pass_values(T, fs, pick, x, y)
    ys = _long_double_fiber(T, pick, x, y, np.longdouble)
    # today's route: x_k by orbit_angles, one e() of the rounded b x_k + c y_k
    xs, table_ys = orbit_angles(T.cf, pick, x), _table_fiber(_fiber_terms(T, x), pick, y)
    for f in fs:

        def worst(z, fiber):
            cos, sin = _long_double_values(T, f, pick, x, fiber)
            return float(np.hypot(z.real - cos, z.imag - sin).max())

        assert worst(got[f], ys) <= _point_bound(T, f, x), f
        # both routes share the table fiber, whose error leads the first comparison (the old
        # route's rounding of b x_k + c y_k moves its worst point either way), so the routes
        # are compared on the step they differ in: from the same float y_k to e(b x_k + c y_k)
        at = table_ys.astype(np.longdouble)
        assert worst(got[f], at) <= worst(e(f.b * xs + f.c * table_ys), at), f


def test_huge_b_keeps_exact_phases(T):
    # e(b x_k) from tables of theta = frac(b alpha): b is never rounded to a float, where
    # f.b * x_k once rounded 10**30 x_k to an integer and returned the (0, 0) average
    x, y, N = 0.37, 0.61, 1000
    ps = primes_in(2, N)
    logp = np.log(ps.astype(np.float64))
    for b in (10**30, -(10**30) - 7, 3**60):
        f = Observable(b, 0)
        got, theta_ratio = prime_weighted_average(T, f, N, x, y)
        turns = _TAU_LD * _long_double([b * (Fraction(x) + int(p) * T.cf.value) % 1 for p in ps])
        want = complex(np.sum(np.cos(turns) * logp), np.sum(np.sin(turns) * logp)) / N
        assert abs(got - want) <= _point_bound(T, f, x) * theta_ratio, (b, got, want)
        assert abs(got - theta_ratio) > 0.1
    with pytest.raises(PrecisionError):  # frac(b alpha) is not certified at this b
        prime_weighted_average(T, Observable(10**70, 1), N, x, y)


def test_fiber_skips_frequencies_below_one_unit(monkeypatch):
    # |2 kappa_m| = |a_m| / sin(pi ||m alpha||): the amplitudes put 2 |2 kappa_m| just above
    # (m = 2) and just below (m = 3) the unit sum_m |2 kappa_m| 2**-52 of the fiber bound
    cf = ContinuedFraction([1, 2, 3, 4, 5] * 4)
    sine = {m: abs(math.sin(math.pi * float(cf.frac_signed(m)))) for m in (1, 2, 3)}
    amps = {1: 0.2 * sine[1], 2: 2.0**-53 * 0.2 * (1 + 1e-6) * sine[2],
            3: 2.0**-53 * 0.2 * (1 - 1e-6) * sine[3]}
    T = SkewProduct(cf, AnalyticCocycle(amps, 0.01))
    x, y = 0.37, 0.61
    terms = _fiber_terms(T, x)
    unit = sum(abs(k2) for *_, k2 in terms) * 2.0**-52
    assert [2 * abs(k2) > unit for *_, k2 in terms] == [True, True, False]
    gathered = []

    def gather(tables, row, col, y):
        gathered.append([k2_re for *_, k2_re in tables])
        return _fiber_gather(tables, row, col, y)

    monkeypatch.setattr(skew_dynamics, "_fiber_gather", gather)
    ks = primes_in(2, 10**4)
    got = _pass_values(T, [Observable(0, 1)], ks[-50:], x, y)[Observable(0, 1)]
    assert all(kept == [k2.real for *_, k2 in terms[:2]] for kept in gathered)
    every = e(_table_fiber(terms, ks[-50:], y))  # all three frequencies
    assert np.abs(got - every).max() <= 2 * math.pi * (unit + 2.0**-52)


def test_orbit_pass_never_reaches_orbit_angles(T, monkeypatch):
    def refuse(*args):
        raise AssertionError("orbit_angles reached")

    # cocycle's frac01_int_mult serves orbit_angles alone, however the pass would name it
    for name in ("orbit_angles", "frac01_int_mult"):
        monkeypatch.setattr(cocycle, name, refuse)
    fs = [Observable(1, 1), Observable(-1, 3), Observable(2, 0)]
    prime_weighted_averages(T, fs, (10**5,), 0.37, 0.61)
    reduced_residue_average(T, Observable(1, 1), 7272, 7272, 0.3, 0.7)


def test_fiber_is_per_element(T):
    x, y = 0.37, 0.61
    terms = _fiber_terms(T, x)
    near = {a: a * BLOCK + np.array([-1, 0, 1], dtype=np.int64) for a in (1, 2, 477)}
    edges = np.concatenate(list(near.values()))
    windows = [np.union1d(primes_in(a * BLOCK - BLOCK // 2, a * BLOCK + BLOCK // 2), ks)
               for a, ks in near.items()]
    whole = np.union1d(primes_in(2, 2 * BLOCK + 2), edges)
    for ks in [edges] + windows + [whole]:  # edges alone: 9 elements over 477 blocks
        xs, ys = orbit_angles(T.cf, ks, x), _table_fiber(terms, ks, y)
        at = np.searchsorted(ks, edges)
        for k, i in zip(edges.tolist(), at.tolist()):
            if i < len(ks) and ks[i] == k:
                one = np.array([k])
                alone = (orbit_angles(T.cf, one, x)[0],
                         _table_fiber(terms, one, y)[0])
                assert (xs[i], ys[i]) == alone, k


def test_empty_window_is_skipped(T):
    N, hole = 3 * BLOCK, 2 + BLOCK  # three windows; the middle one starts at hole
    src = _HoleSource(N, hole)
    fs = [Observable(0, 1), Observable(1, 1)]
    got = prime_weighted_averages(T, fs, (N,), 0.37, 0.61, primes=src)
    windows = (w for w in prime_windows(default_source(), N) if w[0] != hole)
    sums, mass = _orbit_sums(T, fs, (N,), 0.37, 0.61, windows)
    assert (hole, hole + BLOCK - 1) in src.calls
    for f in fs:
        assert got[f, N] == (complex(sums[f, N] / N), mass[N] / N)


def _dd_route_averages(T, fs, N, x, y):
    ps = primes_in(2, N)
    logp = np.log(ps.astype(np.float64))
    xs, ys = orbit_angles(T.cf, ps, x), _dd_route_fiber(T, ps, x, y)
    return {f: complex(np.sum(e(f.b * xs + f.c * ys) * logp) / N) for f in fs}


STREAM_OBS = [Observable(b, c) for b, c in ((0, 1), (1, 1), (0, 2), (0, 0))]
STREAM_NS = (2, 10**5, 3 * 10**6, 2 + 2 * 2 * SEGMENT_SIZE)  # the last opens a third window


@pytest.fixture(scope="module")
def streamed(T):
    return prime_weighted_averages(T, STREAM_OBS, STREAM_NS, 0.37, 0.61)


@pytest.mark.parametrize("N", STREAM_NS)
def test_streamed_average_matches_whole_array_oracle(T, streamed, N):
    want, theta_ratio = _whole_array_averages(T, STREAM_OBS, N, 0.37, 0.61)
    for f in STREAM_OBS:
        avg, ratio = streamed[f, N]
        if f == Observable(0, 0):
            assert avg == complex(ratio)
        elif f.b == 0:
            assert abs(avg - want[f]) <= 1e-13 * abs(want[f]), (f, avg, want[f])
        else:  # e(b x_k) from the rotation tables; the oracle rounds b x_k + c y_k at ulp(y_k)
            assert abs(avg - want[f]) <= _point_bound(T, f, 0.37) * ratio, (f, avg, want[f])
        assert ratio == pytest.approx(theta_ratio, rel=1e-13, abs=0)


@pytest.mark.parametrize("N", STREAM_NS)
def test_streamed_average_within_per_point_bound_of_dd_route(T, streamed, N):
    want = _dd_route_averages(T, STREAM_OBS, N, 0.37, 0.61)
    delta = FIBER_UNITS * _fiber_unit(T, 0.37)
    for f in STREAM_OBS[:-1]:
        avg, theta_ratio = streamed[f, N]
        assert abs(avg - want[f]) <= 2 * math.pi * abs(f.c) * delta * theta_ratio, (f, avg)


def test_batched_average_equals_single_calls(T, streamed):
    for (f, N), got in streamed.items():
        assert prime_weighted_average(T, f, N, 0.37, 0.61) == got


CHUNK_OBS = [Observable(b, c) for b, c in ((0, 1), (1, 1), (0, 2), (-1, 3), (2, -1), (0, 0))]
CHUNK_NS = (2, 10**5, 4194306)  # 4194306 = 2 + 2 * 2 * SEGMENT_SIZE: past a window edge


@pytest.fixture(scope="module")
def default_chunks(T):
    return (prime_weighted_averages(T, CHUNK_OBS, CHUNK_NS, 0.37, 0.61),
            reduced_residue_average(T, Observable(1, 1), 4_194_330, 30, 0.3, 0.7),
            reduced_residue_average(T, Observable(1, 1), 7272, 7272, 0.3, 0.7))


# chunks of one index cost one slice each, so CHUNK = 1 runs the smaller sizes only; a short
# switch interval interleaves the calling thread and the producer as finely as it can
@pytest.mark.parametrize("chunk", [1, 1000, 10**9])
def test_averages_do_not_depend_on_chunk(T, default_chunks, chunk, monkeypatch):
    import sys

    averages, residue, small_residue = default_chunks
    monkeypatch.setattr(skew_dynamics, "CHUNK", chunk)
    Ns = CHUNK_NS[:2] if chunk == 1 else CHUNK_NS
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = prime_weighted_averages(T, CHUNK_OBS, Ns, 0.37, 0.61)
        small = reduced_residue_average(T, Observable(1, 1), 7272, 7272, 0.3, 0.7)
        if chunk > 1:
            assert reduced_residue_average(T, Observable(1, 1), 4_194_330, 30, 0.3, 0.7) == residue
    finally:
        sys.setswitchinterval(interval)
    assert got == {(f, N): v for (f, N), v in averages.items() if N in Ns}
    assert small == small_residue


def _recorded(calls, name, fn):
    def wrapper(*args):
        calls.append((name, threading.get_ident()))
        return fn(*args)
    return wrapper


def test_sieve_runs_on_one_producer_thread(T, monkeypatch):
    calls = []

    class Source:
        limit = DEFAULT_LIMIT
        primes_in = staticmethod(_recorded(calls, "primes_in", default_source().primes_in))

    for mod, name in ((skew_dynamics, "frac01_int_mult"), (cocycle, "frac01_int_mult"),
                      (skew_dynamics, "e")):  # cocycle's serves orbit_angles
        monkeypatch.setattr(mod, name, _recorded(calls, name, getattr(mod, name)))
    threads = threading.active_count()
    prime_weighted_averages(T, [Observable(1, 1), Observable(0, 2)], (10**5, 4194306),
                            0.37, 0.61, primes=Source())
    assert threading.active_count() == threads  # the producer is joined inside the call
    me = threading.get_ident()
    on = {name: {t for n, t in calls if n == name} for name in ("primes_in", "frac01_int_mult", "e")}
    assert len(on["primes_in"]) == 1 and me not in on["primes_in"]
    assert on["frac01_int_mult"] == on["e"] == {me}


class _RecordedSource:
    """The primes of [2, limit], each call recorded; the call numbered fail_at raises."""

    def __init__(self, limit, fail_at=0):
        self.limit, self.fail_at, self.calls = limit, fail_at, []

    def primes_in(self, lo, hi):
        self.calls.append((lo, hi))
        if len(self.calls) == self.fail_at:
            raise RangeError(f"window [{lo}, {hi}] refused")
        return primes_in(lo, hi)


def test_producer_error_reaches_the_caller_as_its_type(T):
    threads = threading.active_count()
    src = _RecordedSource(3 * BLOCK, fail_at=2)
    with pytest.raises(RangeError, match=f"window \\[{2 + BLOCK}, "):
        prime_weighted_averages(T, [Observable(1, 1)], (3 * BLOCK,), 0.37, 0.61, primes=src)
    assert threading.active_count() == threads
    assert len(src.calls) == 2


def test_consumer_error_stops_the_producer(T, monkeypatch):
    boom, reached = ZeroDivisionError("second chunk"), []

    def index(b0, ks):
        reached.append(int(ks[0]))
        if len(reached) == 2:
            time.sleep(0.2)  # time enough for a drawer not held one window ahead to draw them all
            raise boom
        return _table_index(b0, ks)

    monkeypatch.setattr(skew_dynamics, "_table_index", index)
    threads = threading.active_count()
    N = 5 * 2 * SEGMENT_SIZE
    src = _RecordedSource(N)
    with pytest.raises(ZeroDivisionError) as raised:
        prime_weighted_averages(T, [Observable(1, 1)], (N,), 0.37, 0.61, primes=src)
    assert raised.value is boom
    assert threading.active_count() == threads  # the producer was joined
    taken = len({lo for lo, _ in src.calls if lo <= max(reached)})  # windows evaluated
    assert taken == 1 and len(src.calls) <= taken + 1, src.calls


class _TrackedSource:
    """The primes of [2, limit]; each returned array is tracked until it is freed, and
    each call records how many earlier arrays were still alive when it started."""

    def __init__(self, limit):
        self.limit, self.alive_at_draw, self._alive = limit, [], []

    def primes_in(self, lo, hi):
        self.alive_at_draw.append(sum(f.alive for f in self._alive))
        ps = primes_in(lo, hi)
        self._alive.append(weakref.finalize(ps, lambda: None))
        return ps


class _EagerExecutor:
    """An executor whose submit runs the job at once: a worker that starts each draw
    before the calling thread takes another step, the earliest any worker could."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        done = Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize("eager", [False, True], ids=["worker", "eager"])
def test_at_most_one_earlier_window_alive_when_a_draw_starts(T, eager, monkeypatch):
    import concurrent.futures

    if eager:
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _EagerExecutor)
    N = 5 * 2 * SEGMENT_SIZE
    src = _TrackedSource(N)
    prime_weighted_averages(T, [Observable(1, 1)], (N,), 0.37, 0.61, primes=src)
    assert len(src.alive_at_draw) == 5
    # the window in use, and none before it: two windows at most, the one drawn included
    assert max(src.alive_at_draw) <= 1, src.alive_at_draw


def test_orbit_pass_refuses_an_index_bound_it_cannot_finish(T):
    z = 1 << 60  # 4 TiB of fiber tables for (0, 1); 2**39 windows for (0, 0)
    for f in (Observable(0, 1), Observable(0, 0)):
        with pytest.raises(ResourceError, match="orbit pass budget"):
            reduced_residue_average(T, f, z, 1, 0.0, 0.0)

    class Unbounded(_NoPrimes):
        limit = 1 << 41

    src = Unbounded()
    with pytest.raises(ResourceError, match="orbit pass budget"):
        prime_weighted_average(T, Observable(1, 1), skew_dynamics.ORBIT_MAX_INDEX + 1, 0.0, 0.0,
                               primes=src)
    assert src.calls == []  # refused before any window is sieved


def test_theta_ratio_equals_chebyshev_theta():
    edge = 1 + 2 * 2 * SEGMENT_SIZE  # the last integer of the second window
    Ns = (1, 2, 10**5, edge - 1, edge, edge + 1, 5 * 2 * SEGMENT_SIZE + 12345)
    cf, g, _ = prime_pair()
    got = prime_weighted_averages(SkewProduct(cf, g), [Observable(0, 0)], Ns, 0.0, 0.0)
    for N in Ns:
        assert got[Observable(0, 0), N][1] == chebyshev_theta(N) / N


def test_streamed_average_memory_does_not_grow_with_N(T):
    import tracemalloc

    f = Observable(1, 1)
    prime_weighted_average(T, f, 10**4, 0.1, 0.2)  # lazy tables outside the measurement
    peaks = []
    tracemalloc.start()
    try:
        for N in (4 * 10**6, 2 * 10**7):
            tracemalloc.reset_peak()
            prime_weighted_average(T, f, N, 0.1, 0.2)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * 2**20, peaks


class _NoPrimes:
    """A prime source over [2, 1000] that holds no primes and records each call."""

    limit = 1000

    def __init__(self):
        self.calls = []

    def primes_in(self, lo, hi):
        self.calls.append((lo, hi))
        return np.empty(0, dtype=np.int64)


class _HoleSource:
    """The primes of [2, limit] except those of the window that starts at hole."""

    def __init__(self, limit, hole):
        self.limit, self.hole, self.calls = limit, hole, []

    def primes_in(self, lo, hi):
        self.calls.append((lo, hi))
        return np.empty(0, dtype=np.int64) if lo == self.hole else primes_in(lo, hi)


def test_prime_average_domain_errors(T):
    f = Observable(0, 1)
    for call in (lambda N, src: prime_weighted_average(T, f, N, 0.0, 0.0, primes=src),
                 lambda N, src: prime_weighted_averages(T, [f], [10, N], 0.0, 0.0, primes=src)):
        for N, error in ((0, InvalidInputError), (-5, InvalidInputError), (1001, RangeError)):
            src = _NoPrimes()
            with pytest.raises(error):
                call(N, src)
            assert src.calls == []  # rejected before any window is sieved
        with pytest.raises(RangeError):
            call(DEFAULT_LIMIT + 1, None)


def test_orbit_pass_domain_is_checked_before_any_window(T):
    x, y = 0.37, 0.61
    k2 = sum(abs(kappa2) for *_, kappa2 in _fiber_terms(T, x))
    c_max = int(skew_dynamics.ORBIT_MAX_PHASE_ERROR / (8 * (y + k2) * 2.0**-52))
    bad = [(Observable(1.5, 1), x, y, InvalidInputError, "integers"),
           (Observable(1, 2.0), x, y, InvalidInputError, "integers"),
           (Observable(0, 1), math.nan, y, InvalidInputError, "finite"),
           (Observable(0, 0), x, math.inf, InvalidInputError, "finite"),
           (Observable(0, 10**12), x, y, RangeError, "ORBIT_MAX_PHASE_ERROR"),
           (Observable(0, 10**30), x, y, RangeError, "2\\*\\*53"),
           (Observable(1, -c_max - 1), x, y, RangeError, "ORBIT_MAX_PHASE_ERROR")]
    for f, x_, y_, error, match in bad:
        src = _NoPrimes()
        with pytest.raises(error, match=match):
            prime_weighted_average(T, f, 1000, x_, y_, primes=src)
        assert src.calls == []  # refused before any window is sieved
        with pytest.raises(error, match=match):
            reduced_residue_average(T, f, 1000, 10, x_, y_)
    f = Observable(np.int64(1), -c_max)  # numpy integers pass, and the largest |c|
    assert abs(reduced_residue_average(T, f, 1000, 10, x, y)) <= 1 + 1e-12
    # no fiber and y = 0: any c keeps y_k = 0 exactly, up to where c stops being a float64
    flat = SkewProduct(T.cf, AnalyticCocycle({}, 0.1))
    assert reduced_residue_average(flat, Observable(0, 2**53 - 1), 1000, 10, x, 0.0) == 1
    for c in (2**53, 10**400):  # 10**400 once raised a bare OverflowError
        with pytest.raises(RangeError, match="2\\*\\*53"):
            reduced_residue_average(flat, Observable(0, c), 1000, 10, x, 0.0)


def test_reduced_residue_average_basics(T):
    # d = 1: plain Birkhoff average over z steps
    z = 100
    v = reduced_residue_average(T, Observable(0, 1), z, 1, 0.1, 0.2)
    assert abs(v) <= 1 + 1e-12
    # f = e_{0,0}, d = z prime: normalized count of reduced residues = 1
    v = reduced_residue_average(T, Observable(0, 0), 101, 101, 0.0, 0.0)
    assert v == pytest.approx(1.0)
    for z, d in ((100, 7), (0, 1), (100, 0)):
        with pytest.raises(InvalidInputError):
            reduced_residue_average(T, Observable(0, 1), z, d, 0.0, 0.0)


def _whole_array_residue_average(T, f, z, d, x, y):
    """Oracle: every k <= z in one array, the fiber from one cumsum of g along the orbit."""
    ks = np.arange(1, z + 1, dtype=np.int64)
    mask = np.gcd(ks, d) == 1
    xs = orbit_angles(T.cf, ks[mask], x)
    ys = y + birkhoff_prefix(T.g, T.cf, z, x)[1 : z + 1][mask]
    return complex(np.sum(e(f.b * xs + f.c * ys)) * d / (z * euler_phi(d)))


RESIDUE_OBS = [Observable(b, c) for b, c in ((0, 1), (1, 1), (0, 0))]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_streamed_residue_average_matches_whole_array_oracle(T, n):
    z = T.cf.q(n)
    for f in RESIDUE_OBS:
        want = _whole_array_residue_average(T, f, z, z, 0.0, 0.0)
        got = reduced_residue_average(T, f, z, z, 0.0, 0.0)
        assert abs(got - want) <= 1e-10, (f, got, want)


def test_streamed_residue_average_across_windows(T):
    z = 4_194_330  # 2 * 2 * SEGMENT_SIZE + 26: the third window holds the last 26 k
    assert z > 2 * 2 * SEGMENT_SIZE and z % 30 == 0
    f = Observable(1, 1)
    want = _whole_array_residue_average(T, f, z, 30, 0.3, 0.7)
    got = reduced_residue_average(T, f, z, 30, 0.3, 0.7)
    assert abs(got - want) <= 1e-10, (got, want)
    assert reduced_residue_average(T, Observable(0, 0), z, 30, 0.3, 0.7) == 1.0


def test_residue_average_memory_does_not_grow_with_z(T):
    import tracemalloc

    f = Observable(1, 1)
    reduced_residue_average(T, f, 10**4, 10, 0.1, 0.2)  # lazy tables outside the measurement
    peaks = []
    tracemalloc.start()
    try:
        # one value buffer for every window, and two windows' ks and weights while the
        # next is drawn after the last one's chunks are done: both z span two windows
        for z in (2 * 2 * SEGMENT_SIZE + 6, 2 * 10**7):
            tracemalloc.reset_peak()
            reduced_residue_average(T, f, z, 10, 0.1, 0.2)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * 2**20, peaks
    assert peaks[1] < 60 * 10**6, peaks  # 81 MB when each window allocated its own values


def test_reduced_residue_average_decay(T):
    cf = T.cf
    vals = [abs(reduced_residue_average(T, Observable(0, 1), cf.q(n), cf.q(n), 0.0, 0.0))
            for n in (1, 2, 3)]
    assert vals[2] < vals[1] < vals[0]


def _e_by_sum(t):
    """Oracle: e(t) as the sum of two arrays, cos(2 pi t) + 1j sin(2 pi t)."""
    t = np.asarray(t, dtype=np.float64)
    return np.cos(2 * math.pi * t) + 1j * np.sin(2 * math.pi * t)


_TAU_LD = 8 * np.arctan(np.longdouble(1))  # 2 pi in long double


def _e_long_double(t):
    """Oracle: cos and sin in long double of 2 pi (t - rint(t)), an exact reduction."""
    t = np.asarray(t, dtype=np.float64)
    ang = (t - np.rint(t)).astype(np.longdouble) * _TAU_LD
    return np.cos(ang), np.sin(ang)


def _e_error(z, t):
    """Largest absolute error of a component of z = e(t) against the long-double oracle."""
    c, s = _e_long_double(t)
    return float(max(np.abs(z.real - c).max(), np.abs(z.imag - s).max()))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the oracle needs a long double with a 64-bit significand")
def test_e_within_2_52_of_long_double_oracle():
    from skewlab.poly_prime_sums import ShiftedPoly

    inputs = [np.arange(q) * x / q for q, x in ((101, 1), (1009, 7), (1560, 1543))]  # gauss twists
    n = np.arange(10**6, 10**6 + 5000, dtype=np.int64)
    inputs += [n * 1e-7, n * -3e-6]  # twisted_residue_window's n beta
    N = 10**8
    for coeffs in ((1e-9, 3e-13), (-2e-9, 1e-12, -1e-17)):  # prime_phase_sum's phases
        inputs.append(ShiftedPoly(N, coeffs).phase01(primes_in(N, N + 10**4)))
    rng = np.random.default_rng(26)
    # e(c y_k) of the orbit pass meets |t| up to sum |2 kappa_m| = 1870 and beyond
    inputs += [rng.uniform(lo, hi, 200000) for lo, hi in ((0, 1), (-3, 3), (-1000, 1000),
                                                          (0, 2**20))]
    # measured largest errors: 1.11e-16 here, 5.5e-17 to 7.1e-10 by cos + i sin
    for t in inputs:
        got = _e_error(e(t), t)
        assert got <= 2.0**-52
        assert got <= _e_error(_e_by_sum(t), t)
    assert [e(k / 4) for k in range(4)] == [1, 1j, -1, -1j] == [e(k / 4 - 7) for k in range(4)]
    assert isinstance(e(0.25), np.complex128) and isinstance(e(np.float64(0.1)), np.complex128)
    assert e(np.zeros((2, 3))).shape == (2, 3) and e(np.zeros(())).shape == ()
    strided = np.arange(40.0).reshape(8, 5)[::2, 1:4] / 7
    assert np.array_equal(e(strided), e(strided.copy()))
    with np.errstate(invalid="ignore"):
        assert np.isnan(e(np.array([np.nan, np.inf, -np.inf]))).all()


# window averages of the prime pass through e and through cos + i sin, half a block of
# primes each: measured largest difference 2.7e-13 (near 1e9, at b = 3, c = -5)
PRIME_WINDOW_GAP = 1e-12


@pytest.mark.parametrize("near", [10**5, 10**7, 10**9])
def test_prime_window_averages_match_cos_plus_i_sin(T, near, monkeypatch):
    x, y = 0.37, 0.61
    lo = max(2, near - BLOCK // 4)
    ps = primes_in(lo, lo + BLOCK // 2)
    logp = np.log(ps.astype(np.float64))
    fs = [Observable(1, 2), Observable(0, 1), Observable(3, -5)]

    def window_averages():
        sums, mass = _orbit_sums(T, fs, (int(ps[-1]),), x, y,
                                 [(lo, lo + BLOCK // 2, ps, logp)])
        return [sums[f, int(ps[-1])] / mass[int(ps[-1])] for f in fs]

    got = window_averages()
    monkeypatch.setattr(skew_dynamics, "e", _e_by_sum)
    want = window_averages()
    assert max(abs(a - b) for a, b in zip(got, want)) <= PRIME_WINDOW_GAP, (got, want)


def test_weyl_sum_examples():
    # all points equal
    v = weyl_sum(np.full(10, 0.3), 2)
    assert v == pytest.approx(complex(math.cos(2 * math.pi * 0.6),
                                      math.sin(2 * math.pi * 0.6)))
    # full cycle
    assert abs(weyl_sum(np.arange(4) / 4, 1)) < 1e-15
    # geometric series oracle
    beta, N = 0.1234, 500
    pts = (np.arange(N) * beta) % 1.0
    expect = abs(math.sin(math.pi * N * beta) / (N * math.sin(math.pi * beta)))
    assert abs(weyl_sum(pts, 1)) == pytest.approx(expect, abs=1e-9)


@given(st.integers(1, 40), st.integers(2, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_weyl_modulus_at_most_one(freq, n, seed):
    pts = np.random.default_rng(seed).random(n)
    assert abs(weyl_sum(pts, freq)) <= 1 + 1e-12


def test_star_discrepancy_grid():
    N = 1024
    pts = np.arange(N) / N
    bound = star_discrepancy_bound(pts, N)
    assert bound < 0.02
    assert exact_star_discrepancy(pts) <= bound


def test_star_discrepancy_never_undercuts():
    rng = np.random.default_rng(4)
    # single repeated point: exact discrepancy ~ 1
    pts = np.full(100, 0.5)
    assert star_discrepancy_bound(pts, 10) >= exact_star_discrepancy(pts)
    for _ in range(10):
        pts = rng.random(int(rng.integers(10, 10000)))
        assert star_discrepancy_bound(pts, 100) >= exact_star_discrepancy(pts)


def test_star_discrepancy_bound_refuses_beyond_its_budget():
    # K (N + 256) above DISCREPANCY_MAX_TERMS: at once, where the K Weyl sums never ended
    pts = np.arange(1000) / 1000
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match="discrepancy budget is K"):
        star_discrepancy_bound(pts, 2**64)
    with pytest.raises(ResourceError, match="discrepancy budget is K"):
        star_discrepancy_bound(pts, skew_dynamics.DISCREPANCY_MAX_TERMS // 1256 + 1)
    assert time.perf_counter() - t0 < 1
    assert star_discrepancy_bound(pts, 2) > 0  # inside the budget


def test_nazarov_small_set_constants():
    one = SimpleNamespace(eval=np.ones_like)  # the constant 1
    assert nazarov_small_set(one, 0.5) == 0.0
    assert nazarov_small_set(one, 2.0) == 1.0
    cos = TrigPoly([1], [0.5])
    eps = 0.1
    # oracle: dense-grid measure of {|cos(2 pi x)| <= eps}
    xs = np.arange(1 << 20) / (1 << 20)
    dense = float(np.mean(np.abs(np.cos(2 * np.pi * xs)) <= eps))
    assert nazarov_small_set(cos, eps, grid=1 << 14) == pytest.approx(dense, abs=2e-3)
    with pytest.raises(InvalidInputError):
        nazarov_small_set(cos, 0.1, grid=512)


def test_nazarov_monotone_and_vanishing():
    cos = TrigPoly([1], [0.5])
    vals = [nazarov_small_set(cos, eps, grid=1 << 14)
            for eps in (0.5, 0.2, 0.1, 0.02, 1e-4)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_nazarov_monotone_on_block_family():
    # actual denominator blocks: measure of {|g_n| <= eps * sup} shrinks to 0
    from skewlab.cocycle import reduce as creduce

    cf, g, _ = prime_pair()
    red = creduce(g, cf, _params_of(), 4)
    for n in sorted(red.blocks)[:2]:
        block = red.blocks.get(n)
        sup = block.sup_norm()[1]
        vals = [nazarov_small_set(block, eps * sup, grid=1 << 14)
                for eps in (0.5, 0.1, 0.01, 1e-4)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01


def test_nazarov_translate_count(T):
    cf, g, _ = prime_pair()
    from skewlab.cocycle import reduce as creduce

    red = creduce(g, cf, _params_of(), 5)
    block = red.blocks.get(1)
    qn = cf.q(2)
    count = nazarov_translate_count(block, cf, qn, 2.0, 0.3)
    assert 0 <= count <= qn
    # tighter threshold catches fewer translates
    count_tight = nazarov_translate_count(block, cf, qn, 5.0, 0.3)
    assert count_tight <= count


def _params_of():
    from skewlab.diophantine import AnalysisParams

    return AnalysisParams(tau_prime=5e-4, delta=0.2)


def test_frac01_int_mult_rejects_inexact_multipliers():
    for n in ([0, 2**53], [-(2**53), 5], [2**62]):
        with pytest.raises(RangeError):
            frac01_int_mult(np.array(n, dtype=np.int64), 0.1, 0.0)
    edge = np.array([-(2**53) + 1, 2**53 - 1], dtype=np.int64)  # still exact in float64
    assert frac01_int_mult(edge, 0.5, 0.0).tolist() == [0.5, 0.5]
