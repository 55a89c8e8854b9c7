import math

import numpy as np
import pytest

from lemmas import (birkhoff_closed_fraction, birkhoff_prefix, birkhoff_sup_bound,
                    coboundary_drift, denjoy_koksma_gap)
from skewlab.cocycle import AnalyticCocycle, TrigPoly, birkhoff_closed, birkhoff_direct, reduce
from skewlab.diophantine import AnalysisParams, ContinuedFraction
from skewlab.errors import InvalidInputError

TAU_P = 0.095


@pytest.fixture(scope="module")
def cf():
    return ContinuedFraction([1, 2, 3, 4, 5, 6, 7, 8, 9, 10] * 4)


@pytest.fixture(scope="module")
def random_g():
    rng = np.random.default_rng(0)
    coeffs = {}
    for m in rng.choice(np.arange(1, 60), size=8, replace=False):
        amp = math.exp(-TAU_P * m) * 0.8 * rng.random()
        coeffs[int(m)] = amp * np.exp(2j * np.pi * rng.random())
    return AnalyticCocycle(coeffs, TAU_P)


def test_eval_cosine_points():
    g = AnalyticCocycle({1: 0.5}, TAU_P)  # cos(2 pi x)
    assert abs(g.eval(0.0) - 1.0) < 1e-15
    assert abs(g.eval(0.25)) < 1e-15
    g2 = AnalyticCocycle({2: 0.5}, TAU_P)
    # oracle: direct summation a_2 e(2x) + conj at x = 1/8 gives cos(pi/2) = 0
    assert abs(g2.eval(0.125)) < 1e-15


def test_reality_everywhere_sampled():
    rng = np.random.default_rng(1)
    g = AnalyticCocycle({3: 0.2 + 0.1j, 7: -0.15 + 0.2j}, TAU_P)
    xs = rng.random(512)
    # conjugate-symmetric storage makes the imaginary part identically zero;
    # cross-check against the two-sided complex sum
    coefficients = [(s * int(m), a if s > 0 else np.conj(a))
                    for m, a in zip(g.freqs, g.amps) for s in (1, -1)]
    two_sided = sum(a * np.exp(2j * np.pi * m * xs) for m, a in coefficients)
    assert np.max(np.abs(two_sided.imag)) < 1e-12
    assert np.allclose(g.eval(xs), two_sided.real, atol=1e-12)


def test_decay_certificate_rejected():
    with pytest.raises(InvalidInputError):
        AnalyticCocycle({10: 1.0}, TAU_P)  # 1.0 > e^{-0.95}
    with pytest.raises(InvalidInputError):
        AnalyticCocycle({0: 0.5}, TAU_P)  # zero mean required
    for rate in (0.0, -1.0):  # no decay certificate; M_max would divide by 0
        with pytest.raises(InvalidInputError):
            AnalyticCocycle({1: 0.1}, rate)


def test_birkhoff_direct_basics(cf, random_g):
    assert birkhoff_direct(random_g, cf, 0, 0.3) == 0.0
    assert birkhoff_closed(random_g, cf, 0, 0.3) == 0.0


def test_closed_vs_direct(cf, random_g):
    for n in (1, 7, 100, 1000, 10000):
        for x in (0.0, 0.3, 0.77):
            d = birkhoff_direct(random_g, cf, n, x)
            c = birkhoff_closed(random_g, cf, n, x)
            assert abs(d - c) < 1e-8, (n, x)


def test_cocycle_identity(cf, random_g):
    rng = np.random.default_rng(3)
    for _ in range(300):
        n, m = (int(v) for v in rng.integers(1, 10000, 2))
        x = float(rng.random())
        lhs = birkhoff_closed(random_g, cf, n + m, x)
        xm = (x + float(cf.frac01(n))) % 1.0
        rhs = birkhoff_closed(random_g, cf, n, x) + birkhoff_closed(random_g, cf, m, xm)
        assert abs(lhs - rhs) < 1e-9


def test_single_frequency_sup_bound(cf):
    # 4/||m alpha|| dominates |S_n| for every n
    g = AnalyticCocycle({7: 0.5 * math.exp(-TAU_P * 7)}, TAU_P)
    bound = birkhoff_sup_bound(g, cf)
    m_dist = float(cf.dist_to_integers(7))
    assert bound <= 2 * 2 * 0.5 * math.exp(-TAU_P * 7) * 4 / m_dist + 1e-12
    worst = max(abs(birkhoff_closed(g, cf, n, 0.123)) for n in range(1, 3000, 13))
    assert worst <= bound


def test_birkhoff_prefix_matches_direct(cf, random_g):
    pref = birkhoff_prefix(random_g, cf, 50, 0.21)
    for n in (0, 1, 17, 50):
        assert abs(pref[n] - birkhoff_direct(random_g, cf, n, 0.21)) < 1e-10


def test_reduce_blocks_and_residual():
    # q: 1, 2, 3, 5, 103, ...: frequency 7 is a multiple of no q_n in range
    cf = ContinuedFraction([2, 1, 1, 20, 1, 1, 50, 1])
    params = AnalysisParams(tau_prime=TAU_P)
    q3 = cf.q(3)
    g = AnalyticCocycle({q3: 0.4 * math.exp(-TAU_P * q3),
                         7: 0.4 * math.exp(-TAU_P * 7)}, TAU_P)
    red = reduce(g, cf, params, 6)
    assert list(red.blocks[3].freqs) == [q3]
    assert red.residual == {7}
    # blocks partition exactly the classified frequencies (brute force oracle)
    tp2 = params.tau_prime**2
    for m in (int(v) for v in g.freqs):
        eligible = [n for n in range(1, 7)
                    if m % cf.q(n) == 0 and cf.q(n) <= m <= math.log(cf.q(n + 1)) / tp2]
        in_blocks = [n for n, b in red.blocks.items() if m in set(int(f) for f in b.freqs)]
        if eligible:
            assert in_blocks == [max(eligible)]
        else:
            assert m in red.residual


def test_block_supports_pairwise_disjoint():
    cf = ContinuedFraction([2, 3, 4, 5, 2, 3] * 3)
    params = AnalysisParams(tau_prime=TAU_P)
    coeffs = {m: 0.1 * math.exp(-TAU_P * m) for m in range(2, 70, 2)}
    red = reduce(AnalyticCocycle(coeffs, TAU_P), cf, params, 8)
    seen = set()
    for b in red.blocks.values():
        fs = set(int(m) for m in b.freqs)
        assert not (fs & seen)
        seen |= fs


def test_coboundary_drift():
    cf = ContinuedFraction([2, 1, 1, 20, 1, 1, 50, 1])
    params = AnalysisParams(tau_prime=TAU_P)
    q3 = cf.q(3)
    g_pure = AnalyticCocycle({q3: 0.3 * math.exp(-TAU_P * q3)}, TAU_P)
    red = reduce(g_pure, cf, params, 6)
    assert coboundary_drift(g_pure, red, cf, 2000) == 0.0
    # one off-block frequency: drift stays below 4 |a_m| / ||m alpha||
    m_off = 7
    a_off = 0.3 * math.exp(-TAU_P * m_off)
    g = AnalyticCocycle({q3: 0.3 * math.exp(-TAU_P * q3), m_off: a_off}, TAU_P)
    red = reduce(g, cf, params, 6)
    drift = coboundary_drift(g, red, cf, 5000)
    assert drift <= 2 * a_off * 4 / float(cf.dist_to_integers(m_off)) + 1e-9
    assert drift > 0


def test_coboundary_drift_growth_rate():
    # sup_{k <= n} |S_k(g - g~)(0)| must flatten out as n grows; q_4 = 23 takes frequency 23
    # into block 4 and leaves the rest as the residual, so the drift is not identically 0
    cf = ContinuedFraction([3, 1, 4, 1, 5, 9, 2, 6, 5, 3] * 4)
    params = AnalysisParams(tau_prime=TAU_P)
    coeffs = {m: 0.3 * math.exp(-TAU_P * m) for m in (5, 11, 23, 41)}
    g = AnalyticCocycle(coeffs, TAU_P)
    red = reduce(g, cf, params, 10)
    assert red.residual == {5, 11, 41}
    d3 = coboundary_drift(g, red, cf, 10**3)
    assert d3 > 0
    d4 = coboundary_drift(g, red, cf, 10**4)
    d5 = coboundary_drift(g, red, cf, 10**5)
    assert d3 <= d4 <= d5
    assert d5 <= 1.05 * d4  # growth has flattened


def test_closed_form_matches_direct_sum_on_the_cli_draw():
    # cocycle-check's default draw: the closed form's phases m x are reduced exactly, so
    # the two routes agree far inside 1e-10 (a float m x put 7.6e-10 between them)
    from skewlab.presets import prime_pair

    cf, g, _ = prime_pair()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        # m is drawn and dropped, as cocycle-check draws it for its identity row
        n, _, x = int(rng.integers(1, 10_000)), rng.integers(1, 10_000), float(rng.random())
        worst = max(worst, abs(birkhoff_direct(g, cf, n, x) - birkhoff_closed(g, cf, n, x)))
    assert worst <= 1e-10


@pytest.mark.parametrize("preset", ["prime", "phase"])
def test_closed_form_matches_the_fraction_oracle(preset):
    # the whole-array form against the per-row Fraction form it replaced, bit for bit: rows
    # with n = 0, with orbit_shift 0 and not, x outside [0, 1), array and scalar input
    from skewlab.presets import phase_pair, prime_pair

    cf, g = (prime_pair() if preset == "prime" else phase_pair())[:2]
    rng = np.random.default_rng(11)
    rows = 3000
    n = rng.integers(0, 20_000, rows)
    n[:100] = 0
    x = rng.random(rows) * rng.choice([1.0, -3.0, 1e3], rows)
    shift = np.where(rng.random(rows) < 0.5, 0, rng.integers(1, 20_000, rows))
    want = np.array([birkhoff_closed_fraction(g, cf, int(a), float(b), int(c))
                     for a, b, c in zip(n, x, shift)])
    got = birkhoff_closed(g, cf, n, x, shift)
    assert got.shape == (rows,) and np.array_equal(got, want)
    assert not np.any(np.signbit(got[:100]))  # S_0 is exactly 0.0
    assert birkhoff_closed(g, cf, n.reshape(60, 50), x.reshape(60, 50),
                           shift.reshape(60, 50)).ravel().tolist() == want.tolist()
    for a, b, c, w in list(zip(n.tolist(), x.tolist(), shift.tolist(), want.tolist()))[::10]:
        v = birkhoff_closed(g, cf, a, b, orbit_shift=c)
        assert type(v) is float and v == w
    # broadcasting: one n over many x, one x over many n
    assert birkhoff_closed(g, cf, 777, x[:50]).tolist() == [
        birkhoff_closed_fraction(g, cf, 777, b) for b in x[:50].tolist()]
    assert birkhoff_closed(g, cf, n[:50], 0.25).tolist() == [
        birkhoff_closed_fraction(g, cf, a, 0.25) for a in n[:50].tolist()]
    with pytest.raises(InvalidInputError):
        birkhoff_closed(g, cf, np.array([3, -1]), 0.5)


def test_denjoy_koksma(cf):
    h = lambda xs: (np.asarray(xs) % 1.0) - 0.5  # Var = 1, mean 0
    for k in (3, 5, 7):
        q = cf.q(k)
        gap = denjoy_koksma_gap(h, q, 0.37, cf, mean=0.0)
        assert gap <= 1.0 + 1e-9
    const = lambda xs: np.full(np.shape(xs), 0.7)
    assert denjoy_koksma_gap(const, cf.q(4), 0.1, cf, mean=0.7) < 1e-12
    with pytest.raises(InvalidInputError):
        denjoy_koksma_gap(h, cf.q(3) + 1, 0.0, cf, mean=0.0)


def test_sup_S_Kqn_decreases_across_scales():
    # Liouville-type pair: sup_x |S_{K q_n}(g)(x)| shrinks as n grows,
    # for K within min(K_n, e^{2 tau q_n})
    from lemmas import k_n
    from skewlab.presets import phase_pair

    cf, g, params, _ = phase_pair()
    xs = np.arange(256) / 256
    sups = []
    for n in (1, 2, 3):
        K_cap = min(float(k_n(n, cf, params)),
                    math.exp(min(2 * params.tau * cf.q(n), 50)))
        K = max(1, int(K_cap))
        sups.append(max(abs(birkhoff_closed(g, cf, K * cf.q(n), float(x))) for x in xs))
    assert sups[2] < sups[1] < sups[0]


def test_denjoy_koksma_block_decay():
    # |S_{q_n}(g_n)| for the designated blocks shrinks as n grows
    from skewlab.presets import phase_pair

    cf, g, params, red = phase_pair()
    sups = []
    for n in (1, 2, 3):
        block = red.blocks.get(n)
        q = cf.q(n)
        xs = np.arange(64) / 64
        vals = [denjoy_koksma_gap(block.eval, q, float(x), cf, mean=0.0) for x in xs[::8]]
        sups.append(max(vals))
    assert sups[2] < sups[0]


def test_derivative_frequency_multiplication():
    g = AnalyticCocycle({2: 0.25}, TAU_P)  # 0.5 cos(4 pi x)
    d1 = g.derivative(1)
    xs = np.linspace(0, 1, 200, endpoint=False)
    fd = (g.eval(xs + 1e-6) - g.eval(xs - 1e-6)) / 2e-6
    assert np.max(np.abs(d1.eval(xs) - fd)) < 1e-4


def test_sup_norm_grid_refine():
    g = AnalyticCocycle({1: 0.5}, TAU_P)
    grid_max, refined = g.sup_norm()
    assert refined >= grid_max
    assert abs(refined - 1.0) < 1e-10


def _write_csv(g, path):
    """The `m, re(a_m), im(a_m)` lines that AnalyticCocycle.from_csv reads."""
    with open(path, "w") as fh:
        for m, a in zip(g.freqs, g.amps):
            fh.write(f"{int(m)},{float(a.real)!r},{float(a.imag)!r}\n")


def test_csv_roundtrip(tmp_path):
    g = AnalyticCocycle({3: 0.2 + 0.1j, 7: -0.1}, TAU_P)
    path = tmp_path / "cocycle.csv"
    _write_csv(g, path)
    back = AnalyticCocycle.from_csv(path, TAU_P)
    assert np.array_equal(back.freqs, g.freqs)
    assert np.allclose(back.amps, g.amps)
