import math
from types import SimpleNamespace

import numpy as np
import pytest

from lemmas import birkhoff_closed_fraction, orbit_return_error, torus_dist, torus_metric
from skewlab.cocycle import BOUND_GRID, AnalyticCocycle, TrigPoly, birkhoff_closed, reduce
from skewlab.diophantine import AnalysisParams, ContinuedFraction
from skewlab.errors import IntegrityError, InvalidInputError, RangeError
from skewlab.phase_approx import PhasePolynomial, build_phase_poly, polap_error
from skewlab.presets import phase_pair


@pytest.fixture(scope="module")
def pair():
    return phase_pair()


def test_torus_metric():
    assert torus_dist(0.9) == pytest.approx(0.1)
    assert torus_metric((0.95, 0.1), (0.05, 0.9)) == pytest.approx(0.3)


def test_empty_block_zero_polynomial(pair):
    cf, g, params, red = pair
    P = build_phase_poly(red, cf, 5, params)  # depth-5 scale has no block
    xs = np.arange(8) / 8
    assert np.all(P.eval(xs, 100) == 0)
    with pytest.raises(InvalidInputError):
        build_phase_poly(red, cf, 7, params)  # beyond reduction depth


def test_degree_cap(pair):
    cf, g, params, red = pair
    P = build_phase_poly(red, cf, 2, params)
    assert P.degree == math.floor(1 / params.delta) == 5
    assert len(P.coeff_fns) == P.degree


def test_degree_one_regime_is_linear():
    # delta > 1/2: P_n(x, m) = m * g_n(x) coefficient-wise
    cf, g, _, _ = phase_pair()
    params = AnalysisParams(tau_prime=5e-4, delta=0.55)
    red = reduce(g, cf, params, 5)
    P = build_phase_poly(red, cf, 2, params)
    assert P.degree == 1
    block = red.blocks.get(2)
    assert np.array_equal(P.coeff_fns[0].freqs, block.freqs)
    assert np.allclose(P.coeff_fns[0].amps, block.amps)
    xs = np.arange(16) / 16
    assert np.allclose(P.eval(xs, 37), 37 * block.eval(xs))


def test_bocoe_bounds_recorded(pair):
    cf, g, params, red = pair
    for n in (1, 2, 3, 4):
        P = build_phase_poly(red, cf, n, params)
        for s, (stated, sampled) in enumerate(P.bounds, start=1):
            assert sampled <= stated * (1 + 1e-9), (n, s)


def test_violated_bound_names_the_grid_point_of_the_sup(pair):
    # degree 1 (delta > 1/2), and a block far above e^(-tau q_n): a_1 = g_n breaks its bound
    cf = pair[0]
    params = AnalysisParams(tau_prime=5e-4, delta=0.55)
    n = 1
    block = TrigPoly([cf.q(n)], [0.3 - 0.4j])
    red = SimpleNamespace(depth=5, blocks={n: block})
    xs = np.arange(BOUND_GRID) / BOUND_GRID
    x_max = float(xs[np.argmax(np.abs(block.eval(xs)))])
    assert x_max > 0
    with pytest.raises(IntegrityError, match=f"at \\(j, x\\) = \\(1, {x_max:.6f}\\)"):
        build_phase_poly(red, cf, n, params)


def test_coefficients_match_symbolic_rederivation(pair):
    # oracle: rebuild a_s at one x from the defining formula with independent
    # high-resolution Birkhoff sums of the derivative
    cf, g, params, red = pair
    n = 2
    P = build_phase_poly(red, cf, n, params)
    qn = cf.q(n)
    dist = float(cf.dist_to_integers(qn))
    block = red.blocks.get(n)
    x = 0.3125
    for s in range(2, P.degree + 1):
        deriv = block.derivative(s - 1)
        s_qn = birkhoff_closed(deriv, cf, qn, x)
        expected = dist ** (s - 1) * s_qn / (qn**s * math.factorial(s))
        assert abs(P.coeff_fns[s - 1].eval(x) - expected) < 1e-15 + 1e-9 * abs(expected)


def test_polap_error_m_below_window(pair):
    # m < w q_n: the S-difference vanishes and the error is |P_n(x, m)|
    cf, g, params, red = pair
    n = 3
    P = build_phase_poly(red, cf, n, params)
    m = cf.q(n) // 2
    x = 0.21
    err = polap_error(g, P, x, m, 1, cf, params)
    assert err == pytest.approx(abs(P.eval(x, m)), abs=1e-12)


def test_polap_rows_match_the_per_row_oracle(pair):
    # one whole-array call per scale against the per-row form it replaced, bit for bit:
    # the Fraction closed form and P_n(x, m) with Python's float powers of m
    cf, g, params, red = pair
    xs, rng = np.arange(8) / 8, np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        P = build_phase_poly(red, cf, n, params)
        mmax = float(cf.q(n + 1)) ** (1 - params.delta)
        ms = np.unique(np.logspace(0, math.log10(mmax), 40).astype(np.int64))
        m, x = (a.ravel() for a in np.meshgrid(ms, xs, indexing="ij"))
        got = polap_error(g, P, x, m, 1, cf, params)
        want = []
        for mk, xk in zip(m.tolist(), x.tolist()):
            p_n = 0.0
            for s, a_s in enumerate(P.coeff_fns, start=1):
                p_n = p_n + a_s.eval(xk) * float(mk) ** s
            s_m = birkhoff_closed_fraction(g, cf, mk, xk)
            want.append(abs(s_m - birkhoff_closed_fraction(g, cf, mk % cf.q(n), xk) - p_n))
        assert got.tolist() == want, n
        assert polap_error(g, P, x[-1], m[-1], 1, cf, params) == want[-1]
        # P_n alone on random rows, where numpy's own m**s would move about one value in 20
        m, x = rng.integers(1, 110_000, 3000), rng.random(3000)
        want = []
        for mk, xk in zip(m.tolist(), x.tolist()):
            p_n = 0.0
            for s, a_s in enumerate(P.coeff_fns, start=1):
                p_n = p_n + a_s.eval(xk) * float(mk) ** s
            want.append(p_n)
        assert P.eval(x, m).tolist() == want, n


def test_polap_range_errors(pair):
    cf, g, params, red = pair
    P = build_phase_poly(red, cf, 2, params)
    too_big_m = int(float(cf.q(3)) ** (1 - params.delta)) + 10
    with pytest.raises(RangeError):
        polap_error(g, P, 0.1, too_big_m, 1, cf, params)
    with pytest.raises(RangeError):
        polap_error(g, P, 0.1, 5, 10**9, cf, params)


def test_polap_two_scale_decay(pair):
    cf, g, params, red = pair
    xs = np.arange(64) / 64
    errs = {}
    for n in (1, 3):
        P = build_phase_poly(red, cf, n, params)
        mmax = float(cf.q(n + 1)) ** (1 - params.delta)
        ms = np.unique(np.logspace(0, math.log10(mmax), 8).astype(np.int64))
        errs[n] = max(polap_error(g, P, float(x), int(m), 1, cf, params)
                      for m in ms for x in xs[::8])
    assert errs[3] < errs[1]


def test_cross_check_sqn_vs_qn_gn(pair):
    # w = 1, m = q_n: |S_{q_n}(g_n)(x) - q_n g_n(x)| <= sup|g_n'| q_n ||q_n a|| / 2,
    # from summing sup|g_n'| * j * |alpha - p/q| over j < q_n
    cf, g, params, red = pair
    n = 2
    qn = cf.q(n)
    block = red.blocks.get(n)
    budget = qn * float(cf.dist_to_integers(qn))
    dsup = block.derivative(1).sup_norm()[1]
    for x in np.arange(16) / 16:
        lhs = abs(birkhoff_closed(block, cf, qn, float(x)) - qn * block.eval(float(x)))
        assert lhs <= dsup * budget / 2 * (1 + 1e-6) + 1e-12


def _orbit_pair():
    # alpha with a big first denominator so n* sticks at 1 and K_n >= 2
    cf = ContinuedFraction([2000] + [1] * 25)
    params = AnalysisParams(tau_prime=0.095)
    g = AnalyticCocycle({cf.q(2): 0.3 * math.exp(-0.095 * cf.q(2))}, 0.095,
                        m_max=cf.q(8))
    return cf, g, params


def test_orbit_return_error_basics():
    cf, g, params = _orbit_pair()
    n = 2
    qn = cf.q(n)
    # m < z q_n: exactly zero
    assert orbit_return_error(g, cf, n, 1, qn - 1, 0.2, 0.5, params) == 0.0
    # m = q_n, z = 1: dominated by ||q_n alpha|| + |S_{q_n}(g)(x)|
    x = 0.37
    gap = orbit_return_error(g, cf, n, 1, qn, x, 0.0, params)
    bound = float(cf.dist_to_integers(qn)) + abs(birkhoff_closed(g, cf, qn, x))
    assert gap <= bound + 1e-12
    with pytest.raises(RangeError):
        orbit_return_error(g, cf, n, 1, 10**9, 0.0, 0.0, params)


def test_orbit_return_decay_in_n():
    cf, g, params = _orbit_pair()
    xs = np.arange(8) / 8
    gaps = {}
    for n in (2, 4):
        gaps[n] = max(orbit_return_error(g, cf, n, 1, 2 * cf.q(n), float(x), 0.0, params)
                      for x in xs)
    assert gaps[4] < gaps[2]
