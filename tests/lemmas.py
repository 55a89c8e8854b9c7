"""Finite checks of the lemmas behind the argument, used only by the tests.

No command, acceptance criterion or benchmark workload runs these, so they
live beside the tests that call them rather than in the package: the sieve
weights (Brun's majorant and the coprimality expansion) with the constants
frozen from their recipes, the scales n* and K_n, Birkhoff prefixes, the
a-priori sup bound, coboundary drift and Denjoy-Koksma gaps, the torus metric
and orbit return error, the residue progression and twisted window sums, the
partition lemma, the whole-array sliding-window L1 (the oracle of the streamed
statistic), the Nazarov small-set measures, and the float evaluation of the
counterexample's terms (the package evaluates them exactly, at rationals and at
orbit points).  Beside them, oracles of whole-array package code: the closed
Birkhoff form one row at a time with Fraction phases, the short-sum classifier
one q at a time, the short prime sums with each window's phases in one
expression, the primes as an almost-sparse set (the package keeps the
squares alone), the hybrid statistic's class histogram by one bincount, each
character's order and conductor on its own, and the log-vector sums and
Lambda(n) of the identity checks (the package sums int dicts).  Last, the
traced-memory peak of one call, for the tests that bound it.

pytest does not collect this file; test modules import it as a sibling
(``from lemmas import ...``), since pytest puts the directory of each test
module on sys.path.
"""

import itertools
import math
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from skewlab.cocycle import (AnalyticCocycle, ReducedCocycle, TrigPoly, birkhoff_closed,
                             orbit_angles)
from skewlab.counterexample import RampFunction, _circle_dist
from skewlab import poly_prime_sums
from skewlab.dd import e, mulmod
from skewlab.diophantine import AnalysisParams, ContinuedFraction
from skewlab.errors import (IntegrityError, InvalidInputError, PrecisionError,
                            PreconditionError, RangeError, ResourceError)
from skewlab.identities import LogVector
from skewlab.primes import coprime_mask, euler_phi, factorize, primes_in, segment_windows


# ---------------------------------------------------------------------------
# arithmetic functions and combinatorial sieve weights


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


# window averages of the prime-majorant divisor sums, y > z^2:
# measured 3.07 over z in {64, 1e3, 1e4}, x in {1, 1e6}, y = z^2 * {2, 20}.
MAJORANT_WINDOW_C = 4.0

# |sum lambda_e / e - phi(d)/d| * (log q)^(A-1): measured 2.18 over
# q = d in {210, 30030, 510510}, A in {2, 3}.
SIEVE2_ERROR_C = 3.0

MAJORANT_TRUNCATION = 6  # even, so the truncated Brun sum majorizes 1_prime


@dataclass
class SieveWeights:
    """Divisor weights lambda_d of one of the two supported kinds.

    prime-majorant: Brun pure sieve truncated at MAJORANT_TRUNCATION prime
    factors; |lambda_d| <= 1 and 1_prime(n) <= sum_{d|n, d<=z} lambda_d for
    every n above the sifting bound z^(1/MAJORANT_TRUNCATION).

    coprimality: lambda_e = mu(e) on squarefree e built from primes dividing d
    that are <= (log q)^A, with at most (loglog q)^2 of them; used to expand
    the indicator 1_{(n,d)=1} up to explicitly vanishing error terms.
    """

    kind: str
    z: float
    lambdas: dict
    q: int = None
    d: int = None
    A: float = None
    sift_bound: int = None  # prime-majorant: primes <= sift_bound are sieved
    meta: dict = field(default_factory=dict)

    def divisor_sum(self, n: int) -> int:
        """sum of lambda_d over d | n (d <= z is built into the support)."""
        return sum(lam for d, lam in self.lambdas.items() if n % d == 0)


def _subsets_products(primes, max_omega, cap):
    """All squarefree products of <= max_omega of the given primes, <= cap."""
    out = {1: 0}  # product -> number of prime factors
    for p in primes:
        extra = {}
        for v, w in out.items():
            nv = v * p
            if w + 1 <= max_omega and nv <= cap:
                extra[nv] = w + 1
        out.update(extra)
    return out


def build_sieve_weights(kind: str, **params) -> SieveWeights:
    """Construct SieveWeights; see SieveWeights for the two kinds."""
    if kind == "coprimality":
        q, d, A = params["q"], params["d"], params["A"]
        if q < 3:
            raise RangeError("coprimality weights need q >= 3 (loglog q defined)")
        if d < 1 or q % d != 0:
            raise InvalidInputError(f"d = {d} must divide q = {q}")
        if A <= 0:
            raise RangeError("A must be positive")
        loglogq = math.log(math.log(q))
        z = math.exp(A * max(loglogq, 0.0) ** 3)
        p_cap = math.log(q) ** A
        omega_cap = max(loglogq, 0.0) ** 2
        admissible = [p for p, _ in factorize(d) if p <= p_cap]
        products = _subsets_products(admissible, math.floor(omega_cap), math.inf)
        lambdas = {e: (-1 if w % 2 else 1) for e, w in products.items()}
        return SieveWeights(kind=kind, z=z, lambdas=lambdas, q=q, d=d, A=A,
                            meta={"p_cap": p_cap, "omega_cap": omega_cap})

    if kind == "prime-majorant":
        z = params["z"]
        if z < 4:
            raise RangeError("prime-majorant needs z >= 4")
        w = int(z ** (1.0 / MAJORANT_TRUNCATION))
        sieve_primes = primes_in(2, w).tolist()
        products = _subsets_products(sieve_primes, MAJORANT_TRUNCATION, z)
        lambdas = {dd: (-1 if k % 2 else 1) for dd, k in products.items()}
        return SieveWeights(kind=kind, z=z, lambdas=lambdas, sift_bound=w)

    raise InvalidInputError(f"unknown sieve kind {kind!r}")


def coprimality_decomposition_error(n: int, weights: SieveWeights):
    """(lhs, rhs, indicator1, indicator2) of the coprimality expansion.

    lhs = 1_{(n,d)=1}; rhs = sum_{e|n} lambda_e.  indicator1 flags a prime
    p | gcd(n,d) with p > (log q)^A; indicator2 flags omega(n) > (loglog q)^2.
    The expansion is exact (lhs == rhs) whenever both indicators vanish.
    """
    if weights.kind != "coprimality":
        raise InvalidInputError("needs coprimality-kind weights")
    d, pc, oc = weights.d, weights.meta["p_cap"], weights.meta["omega_cap"]
    lhs = 1 if math.gcd(n, d) == 1 else 0
    rhs = weights.divisor_sum(n)
    fac = factorize(n)
    ind1 = any(d % p == 0 and p > pc for p, _ in fac)
    ind2 = len(fac) > oc
    return lhs, rhs, int(ind1), int(ind2)


def coprimality_weight_sum(weights: SieveWeights) -> Fraction:
    """Exact sum of lambda_e / e; compare against phi(d)/d."""
    return sum(Fraction(lam, e) for e, lam in weights.lambdas.items())


def majorant_window_average(weights: SieveWeights, x: int, y: int) -> float:
    """sum over n in [x, x+y] of sum_{d|n} lambda_d, divided by y/log z."""
    total = 0
    for d, lam in weights.lambdas.items():
        count = (x + y) // d - (x - 1) // d
        total += lam * count
    return total / (y / math.log(weights.z))


# ---------------------------------------------------------------------------
# the scales n* and K_n


def _geq_exp(q_k: int, tau: float, q_prev: int) -> bool:
    """q_k >= exp(tau * q_prev), overflow-safe for huge denominators."""
    if q_prev == 0:
        return True
    return math.log(q_k) >= tau * float(q_prev) if q_prev < 10**300 else False


def n_star(n: int, cf: ContinuedFraction, params: AnalysisParams) -> int:
    """Largest k <= n with q_k >= exp(tau * q_{k-1}).

    Follows the convention q_0 := 0 inside this comparison only, so the k = 1
    test always passes and the scale exists for every n >= 1.
    """
    if n < 1 or n > cf.max_index():
        raise RangeError(f"n = {n} outside computed depth {cf.max_index()}")
    for k in range(n, 0, -1):
        q_prev = 0 if k == 1 else cf.q(k - 1)
        if _geq_exp(cf.q(k), params.tau, q_prev):
            return k
    raise AssertionError("unreachable: k = 1 always satisfies the convention")


def k_n(n: int, cf: ContinuedFraction, params: AnalysisParams) -> Fraction:
    """K_n = q_{n+1} / q_{n_star}, exact rational."""
    if n + 1 > cf.max_index():
        raise RangeError(f"need q_{n + 1}, computed depth is {cf.max_index()}")
    return Fraction(cf.q(n + 1), cf.q(n_star(n, cf, params)))


# ---------------------------------------------------------------------------
# Birkhoff sums and coboundaries


def birkhoff_prefix(g, cf: ContinuedFraction, n: int, x: float) -> np.ndarray:
    """[S_0, S_1, ..., S_n](g)(x) by cumulative direct summation."""
    if n == 0:
        return np.zeros(1)
    vals = g.eval(orbit_angles(cf, np.arange(n, dtype=np.int64), x))
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(vals, out=out[1:])
    return out


def _kernel_ratio_per_frequency(cf: ContinuedFraction, ms, n: int) -> np.ndarray:
    """(e_m(n alpha) - 1) / (e_m(alpha) - 1) per frequency m of ms, one frequency at a time:
    the oracle of cocycle._kernel_ratio."""
    sines, phases = [], []
    for m in map(int, ms):
        v = float(cf.frac_signed(m))
        if abs(v) < 1e-300:
            raise PrecisionError(f"||{m}*alpha|| below double-precision floor")
        u = float(cf.frac_signed(m * n))
        sines.append(math.sin(math.pi * u) / math.sin(math.pi * v))
        phases.append((u - v) / 2)
    return np.array(sines) * e(np.array(phases))


def birkhoff_closed_fraction(g, cf: ContinuedFraction, n: int, x: float,
                             orbit_shift: int = 0) -> float:
    """S_n(g)(x + orbit_shift * alpha) by the closed form for one row, its phases reduced
    as Fractions: the oracle of the whole-array cocycle.birkhoff_closed."""
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    if n == 0:
        return 0.0
    phases = [Fraction(x) * m + (cf.frac01(m * orbit_shift) if orbit_shift else 0)
              for m in map(int, g.freqs)]
    terms = (g.amps * e(np.array([float(p % 1) for p in phases]))
             * _kernel_ratio_per_frequency(cf, g.freqs, n))
    return float(2.0 * terms.real.sum())


def birkhoff_sup_bound(g, cf: ContinuedFraction) -> float:
    """The a-priori bound 4 * sum |a_m| / ||m alpha||, valid for every n."""
    total = 0.0
    for m, a in zip(g.freqs, g.amps):
        total += 2 * abs(a) * 4.0 / float(cf.dist_to_integers(int(m)))
    return total


def coboundary_drift(g: AnalyticCocycle, g_red: ReducedCocycle, cf: ContinuedFraction, n_max: int) -> float:
    """sup_{k <= n_max} |S_k(g - g_tilde)(0)|; bounded iff the difference is a coboundary.

    Each block of g_red is g restricted to its frequencies, so g - g_tilde is g
    restricted to the residual.
    """
    h = g.restrict(g_red.residual)
    if len(h.freqs) == 0:
        return 0.0
    prefix = birkhoff_prefix(h, cf, n_max, 0.0)
    return float(np.max(np.abs(prefix)))


def denjoy_koksma_gap(h, q: int, x: float, cf: ContinuedFraction, mean: float) -> float:
    """|S_q(h)(x) - q * mean| for a convergent denominator q.

    h is any callable on arrays (a TrigPoly's eval too) and mean its integral.
    """
    denominators = {cf.q(k) for k in range(0, cf.max_index() + 1)}
    if q not in denominators:
        raise InvalidInputError(f"q = {q} is not a convergent denominator of alpha")
    return abs(float(np.sum(h(orbit_angles(cf, np.arange(q, dtype=np.int64), x)))) - q * mean)


# ---------------------------------------------------------------------------
# orbit returns on the torus


def torus_dist(a: float) -> float:
    """|| a || = distance from a to the nearest integer."""
    f = a % 1.0
    return min(f, 1.0 - f)


def torus_metric(p1, p2) -> float:
    """d((x,y),(x',y')) = ||x - x'|| + ||y - y'||."""
    return torus_dist(p1[0] - p2[0]) + torus_dist(p1[1] - p2[1])


def orbit_return_error(g, cf: ContinuedFraction, n: int, z: int, m: int,
                       x: float, y: float, params: AnalysisParams) -> float:
    """Torus distance between the orbit at time m and at time m mod z*q_n."""
    qn = cf.q(n)
    cap = float(qn) * min(float(k_n(n, cf, params)), math.exp(min(2 * params.tau * qn, 700)))
    if m > cap:
        raise RangeError(f"m = {m} beyond q_n * min(K_n, e^(2 tau q_n)) = {cap:.3e}")
    m_red = m % (z * qn)
    dx = float(cf.frac01(m - m_red))
    dy = birkhoff_closed(g, cf, m, x) - birkhoff_closed(g, cf, m_red, x)
    return torus_dist(dx) + torus_dist(dy)


# ---------------------------------------------------------------------------
# residue-class counts and twisted windows


def residue_progression_gap(q: int, r: int, d: int) -> dict:
    """(1/r) sum_{a <= r} |#{n <= q, (n,d) = 1, n = a mod r} - (phi(d)/d)(q/r)|."""
    if math.gcd(r, q) != 1:
        raise PreconditionError(f"need (r, q) = 1")
    if d < 1 or q % d != 0:
        raise InvalidInputError(f"d = {d} must divide q = {q}")
    n = np.arange(1, q + 1, dtype=np.int64)
    mask = coprime_mask(1, q, [p for p, _ in factorize(d)])
    counts = np.bincount(n % r, weights=mask, minlength=r)
    normalizer = euler_phi(d) / d * q / r
    gap = float(np.mean(np.abs(counts - normalizer)))
    return {"value": gap, "normalizer": normalizer}


def twisted_residue_window(q: int, d: int, r: int, a: int, y: int, H: int, beta: float):
    """The two window sums of the small-beta comparison.

    Returns (sum over n in [y, y+H], (n,d) = 1, n = a mod r of e(n beta),
             (1/phi(r)) sum over n in [y, y+H], (n, r d) = 1 of e(n beta)).
    The guarantee needs |beta| <= e^(-r); larger twists are out of range.
    """
    if abs(beta) > math.exp(-r):
        raise RangeError(f"|beta| = {abs(beta):.3e} beyond e^(-r)")
    n = np.arange(y, y + H + 1, dtype=np.int64)
    cop_d = coprime_mask(y, y + H, [p for p, _ in factorize(d)])
    first = complex(np.sum(e(n[cop_d & (n % r == a % r)] * beta)))
    cop_rd = cop_d & coprime_mask(y, y + H, [p for p, _ in factorize(r)])
    second = complex(np.sum(e(n[cop_rd] * beta)) / euler_phi(r))
    return first, second


# ---------------------------------------------------------------------------
# short prime sums: the classifier one q at a time


def oscillation_classify_per_q(g, H: int, N: int, B: float):
    """poly_prime_sums.oscillation_classify testing one q per step, under the same
    poly_prime_sums.CLASSIFY_MAX_Q: its oracle."""
    if N < 2 or H < 1:
        raise InvalidInputError(f"need N >= 2 and H >= 1, got N={N}, H={H}")
    if B <= 0:
        raise InvalidInputError("B must be positive")
    try:
        height = math.log(N) ** B
    except OverflowError:
        raise RangeError(f"(log N)^B overflows a double at N = {N}, B = {B}") from None
    Q = max(1, math.floor(height))
    thresh = [height / float(H) ** i for i in range(1, g.degree + 1)]
    budget = poly_prime_sums.CLASSIFY_MAX_Q
    for q in range(1, min(Q, budget) + 1):
        for c, t in zip(g.coeffs, thresh):
            v = (q * c) % 1.0
            if min(v, 1.0 - v) > t:
                break
        else:
            return "non-oscillatory", q
    if Q > budget:
        raise ResourceError(f"classification budget is q <= {budget}, "
                            f"(log N)^B = {height:.3e} asks for q <= {Q}")
    return "oscillatory", None


def integer_phase_main_term_whole(N: int, H: int, r: int, g) -> complex:
    """poly_prime_sums.integer_phase_main_term with e(g(n)) formed for a whole
    PHASE_CHUNK of integers by one expression, as before it went in pieces."""
    chunk = poly_prime_sums.PHASE_CHUNK
    total = 0j
    for lo in range(N, N + H + 1, chunk):
        ns = np.arange(lo, min(lo + chunk, N + H + 1), dtype=np.int64)
        total += complex(np.sum(e(g.phase01(ns))))
    return total / euler_phi(r)


def prime_phase_sum_whole(N: int, H: int, r: int, a: int, g) -> complex:
    """poly_prime_sums.prime_phase_sum with e(g(p)) log p formed for a whole prime
    window by one expression, and the logs from a float64 copy of the primes."""
    total = 0j
    for lo, hi in segment_windows(N + H, N):
        ps = primes_in(lo, hi)
        ps = ps[ps % r == a % r]
        if len(ps):
            total += complex(np.sum(e(g.phase01(ps)) * np.log(ps.astype(np.float64))))
    return total


# ---------------------------------------------------------------------------
# the primes as an almost-sparse set


def prime_gap_filter(N: int) -> int:
    """c(N) = ceil(loglog N), at least 1: the pair distance of the primes' bad set B_N."""
    return max(1, math.ceil(math.log(max(math.log(max(N, 3)), 1.0001))))


def prime_sparse_window(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] with B_hi removed: both members of any prime pair at distance
    <= c(hi), so the surviving gaps exceed c(hi)."""
    c = prime_gap_filter(hi)
    # a pair closer than c(hi) with a member >= lo has both members >= lo - c(hi)
    ps = primes_in(max(2, lo - c), hi)
    close = np.diff(ps) <= c  # pairs (ps[i], ps[i+1])
    bad = np.r_[close, False] | np.r_[False, close] if ps.size else close
    return ps[(ps >= lo) & ~bad]


# ---------------------------------------------------------------------------
# the partition lemma


def combi_partition(a, eta: float):
    """Partition {0..k-1} into I, J, K with |sum_I - sum_J| <= 1/3 - eta and
    sum_K <= 5/9 - 2*eta, by exhaustive search.

    Returns (I, J, K) as sorted tuples.  Raises PreconditionError when the
    hypotheses fail and IntegrityError when no partition exists on valid
    input (which would contradict the lemma).
    """
    a = [float(x) for x in a]
    k = len(a)
    if k < 4:
        raise PreconditionError("need k >= 4 parts")
    if not 0 < eta < 1e-5:
        raise PreconditionError("need eta in (0, 1e-5)")
    if abs(sum(a) - 1.0) > 1e-9:
        raise PreconditionError("parts must sum to 1")
    for i, x in enumerate(a[:-1]):
        if not 0 < x < 1 / 3 - 100 * eta:
            raise PreconditionError(f"a[{i}] = {x} outside (0, 1/3 - 100*eta)")
    if not 0 < a[-1] < 1 / 3 + 100 * eta:
        raise PreconditionError(f"a[{k - 1}] = {a[-1]} outside (0, 1/3 + 100*eta)")
    if k > 20:
        raise ResourceError("exhaustive search capped at k = 20")

    idx = range(k)
    for ksize in range(1, k - 1):
        for K in itertools.combinations(idx, ksize):
            sK = sum(a[i] for i in K)
            if sK > 5 / 9 - 2 * eta:
                continue
            rest = [i for i in idx if i not in K]
            for isize in range(1, len(rest)):
                for I in itertools.combinations(rest, isize):
                    J = tuple(i for i in rest if i not in I)
                    sI = sum(a[i] for i in I)
                    sJ = sum(a[i] for i in J)
                    if abs(sI - sJ) <= 1 / 3 - eta:
                        return tuple(I), J, K
    raise IntegrityError("no valid partition found: contradicts the partition lemma")


# ---------------------------------------------------------------------------
# the whole-array sliding-window L1, the oracle of the streamed statistic


def _window_l1(positions, weights, classes, x, H, r, target):
    """sum over y in [0, x) of sum_v |S_v(y) - target| for windows [y, y+H].

    S_v(y) sums the weights of the positions p in [y, y+H] with class v; it is
    constant between the events y = max(p - H, 0), where p enters, and
    y = p + 1, where p leaves.  classes must lie in [0, r).
    """
    ev_y = np.concatenate([np.maximum(positions - H, 0), positions + 1])
    ev_c = np.concatenate([classes, classes])
    ev_w = np.concatenate([weights, -weights])
    order = np.lexsort((ev_y, ev_c))
    ev_y, ev_c, ev_w = ev_y[order], ev_c[order], ev_w[order]
    first = np.ones(len(ev_c), dtype=bool)  # first event of its class
    first[1:] = ev_c[1:] != ev_c[:-1]
    # S_v right after each event: the running sum restarted at each class
    csum = np.cumsum(ev_w)
    before = np.concatenate([[0.0], csum[:-1]])
    counts = csum - before[first][np.cumsum(first) - 1]
    # each count holds until the class's next event, the last one until x
    seg_end = np.empty_like(ev_y)
    seg_end[:-1] = ev_y[1:]
    seg_end[np.roll(first, -1)] = x
    lengths = np.minimum(seg_end, x) - np.minimum(ev_y, x)
    total = float(np.sum(np.abs(counts - target) * lengths))
    # S_v = 0 before a class's first event and throughout a class without events
    idle = np.sum(np.minimum(ev_y[first], x)) + x * (r - np.count_nonzero(first))
    return total + target * float(idle)


def huxley_sliding_oracle(x: int, H: int, q: int, r: int) -> float:
    """The sliding-window statistic of huxley_stat_progressions (H != x) from
    all primes in [2, x + H] at once, as the package computed it before it
    streamed them: one lexsort of every enter and leave event."""
    ps = primes_in(2, x + H)
    return _window_l1(ps, np.log(ps.astype(np.float64)), (ps % q) % r, x, H, r, H / r)


def class_log_histogram(x: int, q: int) -> np.ndarray:
    """sum of log p over the primes p <= x in each class mod q, by one bincount of all
    of them: the histogram of huxley_stat_windows before it walked the prime windows."""
    ps = primes_in(2, x)
    return np.bincount((ps % q).astype(np.int64), weights=np.log(ps.astype(np.float64)),
                       minlength=q)


# ---------------------------------------------------------------------------
# one character's order and conductor


def character_order_conductor(chi) -> tuple:
    """(order, conductor) of one character from its exponents, one lcm each: the route
    of Character before the table built both for all characters at once."""
    comps = chi.table.components
    ds = [comp.order // math.gcd(comp.order, k) for k, comp in zip(chi.ks, comps)]
    conductor = math.lcm(*[comp.p**comp.c * math.gcd(d, comp.modulus)
                           for comp, d in zip(comps, ds) if d > 1])
    return math.lcm(*ds), conductor


# ---------------------------------------------------------------------------
# the log-vector algebra of the identity checks


class LogSum(LogVector):
    """A LogVector with + and -: the per-divisor oracles add and subtract terms, while
    vaughan_decompose sums plain int dicts."""

    __slots__ = ()

    def __add__(self, other):
        out = dict(self.coords)
        for p, c in other.coords.items():
            out[p] = out.get(p, 0) + c
        return LogSum(out)

    def __sub__(self, other):
        return self + LogSum({p: -c for p, c in other.coords.items()})


def von_mangoldt(n: int) -> LogSum:
    """Lambda(n) as a log-vector: log p at n = p^k, else 0."""
    fac = factorize(n) if n > 1 else []
    return LogSum({fac[0][0]: 1} if len(fac) == 1 else {})


# ---------------------------------------------------------------------------
# small-set measures


def nazarov_small_set(p: TrigPoly, eps: float, grid: int = 1 << 12) -> float:
    """Grid estimate of Leb{x : |p(x)| <= eps}."""
    if grid < (1 << 10):
        raise InvalidInputError("grid must be >= 2^10")
    xs = np.arange(grid) / grid
    return float(np.mean(np.abs(p.eval(xs)) <= eps))


def nazarov_translate_count(g_block: TrigPoly, cf: ContinuedFraction, q_n: int,
                            eps_exponent: float, x: float) -> int:
    """|{u <= q_n : |g(x + u alpha)| <= q_n^(-eps)}| along the rotation orbit."""
    angles = orbit_angles(cf, np.arange(1, q_n + 1, dtype=np.int64), x)
    thresh = float(q_n) ** (-eps_exponent)
    return int(np.count_nonzero(np.abs(g_block.eval(angles)) <= thresh))


# ---------------------------------------------------------------------------
# float evaluation of the counterexample's terms f_n and h_n

RIGIDITY_GRID = 4096  # sample points of rigidity_distribution_gap


def ramp_eval(f, x):
    """Vectorized float evaluation of a RampFunction on [0,1)."""
    x = np.asarray(x, dtype=np.float64)
    xs = np.atleast_1d(x) % 1.0
    j = np.minimum((xs * f.q).astype(np.int64), f.q - 1)
    out = f._shape(f.L_of_s(mulmod(j, f.p_inv, f.q)), xs - j / f.q)
    return out.reshape(x.shape) if x.shape else float(out[0])


def tent_eval(h, x):
    """Float evaluation of a TentFunction."""
    u = (np.asarray(x, dtype=np.float64) * h.q) % 1.0
    out = np.where(u <= 0.5, 2.0 * u, 2.0 * (1.0 - u))
    return out if out.shape else float(out)


def tent_variation(h):
    return 2 * h.q


def _term_eval(term, x):
    return ramp_eval(term, x) if isinstance(term, RampFunction) else tent_eval(term, x)


def _telescoped(st, x: np.ndarray, shift: float, upto: int) -> np.ndarray:
    """sum_{n <= upto} (F_n(x + shift) - F_n(x)) with F_n = f_n (+ h_n), float mode."""
    out = np.zeros(x.shape)
    for m in range(1, upto + 1):
        for term in st._stages[m]["terms"]:
            out += _term_eval(term, (x + shift) % 1.0) - _term_eval(term, x)
    return out


def g_truncated(st, x, upto=None):
    """sum_{n <= upto} (f_n(x + alpha) - f_n(x)) [+ tent terms] of st, float mode."""
    upto = st.solved() if upto is None else min(upto, st.solved())
    out = _telescoped(st, np.asarray(x, dtype=np.float64), float(st.cf.value), upto)
    return out if out.shape else float(out)


def continuity_certificate(st):
    """Per solved stage: the two summands of the continuity criterion."""
    rows = []
    for n in range(1, st.solved() + 1):
        stage = st._stages[n]
        q, q1 = stage["q"], stage["q_next"]
        dmax = max(float(steps.max()) for _, steps in st._slope_steps(n))
        rows.append({"n": n, "sup_term": float(stage["L_window"].max()) / (q * q1),
                     "lip_term": dmax / q1})
    return rows


def rigidity_distribution_gap(st, n):
    """Histogram distance of S_{K_n q_l}(g) mod 1 from its nearest constant.

    K_n = floor(q_{l_n + 1} / (2 q_{l_n})); reported diagnostic for the
    unique-ergodicity variant, not asserted against any constant.
    """
    if not st.include_h:
        raise PreconditionError("needs the tent variant")
    l = st.stage_l[n - 1]
    K = st.cf.q(l + 1) // (2 * st.cf.q(l))
    steps = K * st.cf.q(l)
    # S_steps(g)(x) = sum_n [F_n(x + steps*alpha) - F_n(x)]
    total = _telescoped(st, np.arange(RIGIDITY_GRID) / RIGIDITY_GRID,
                        float(st.cf.frac01(steps)), st.solved()) % 1.0
    best = min(float(np.mean(_circle_dist(total, c))) for c in np.arange(0, 1, 1 / 64))
    return {"n": n, "K": K, "mean_distance_to_nearest_constant": best}


# ---------------------------------------------------------------------------
# memory


def traced_peak(fn, *args) -> int:
    """The peak of tracemalloc's traced memory, in bytes, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
