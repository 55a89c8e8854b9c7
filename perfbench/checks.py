"""The benchmark's own arithmetic and the checks that judge skewlab's outputs.

Nothing here imports skewlab.  Every expected value is recomputed from the
workload's inputs with plain integer sieves, trial division, exact rationals
or closed formulas, so a check can only pass when skewlab agrees with an
independent computation or with a property its method must have.

Each ``check_*`` function returns ``None`` when the output is accepted and a
one-line reason when it is rejected.

Tolerances follow from the precision of the method under test:

* ``REL_DD``: results built from double-double phase reduction and float64
  sums, compared relative to the sum of the absolute values of their terms.
* ``ABS_CHAR``: character-table identities, the criterion-5 tolerance.
* Exact rationals and integers are compared for equality.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

REL_DD = 1e-12
ABS_CHAR = 1e-9
ORBIT_AVG_BOUND = 0.2  # criterion 9: |average| at the desk-scale N


# ---------------------------------------------------------------------------
# primes


def plain_sieve(n: int) -> np.ndarray:
    """All primes <= n by an odd-only sieve of Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n - 1) // 2, dtype=bool)  # odd[i] stands for 2 i + 3
    for p in range(3, math.isqrt(n) + 1, 2):
        if odd[(p - 3) // 2]:
            odd[(p * p - 3) // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd).astype(np.int64) + 3))


def window_primes(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], crossing off multiples of the primes <= sqrt(hi)."""
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    alive = np.ones(hi - lo + 1, dtype=bool)
    for p in plain_sieve(math.isqrt(hi)).tolist():
        start = max(p * p, -(-lo // p) * p)
        alive[start - lo :: p] = False
    return lo + np.flatnonzero(alive).astype(np.int64)


def theta(primes: np.ndarray) -> float:
    """sum of log p, correctly rounded."""
    return math.fsum(np.log(primes.astype(np.float64)).tolist())


def factor(n: int) -> dict:
    """{p: exponent} by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def primitive_count(q: int) -> int:
    """Number of primitive characters mod q: f(p) = p - 2, f(p^k) = p^(k-2) (p - 1)^2."""
    out = 1
    for p, k in factor(q).items():
        out *= p - 2 if k == 1 else p ** (k - 2) * (p - 1) ** 2
    return out


def legendre_row(q: int) -> np.ndarray:
    """Euler's criterion a^((q-1)/2) mod q as 0/+1/-1 over a in [0, q), q an odd prime."""
    row = np.zeros(q)
    for a in range(1, q):
        row[a] = 1.0 if pow(a, (q - 1) // 2, q) == 1 else -1.0
    return row


def sifted_count(lo: int, hi: int, z: int) -> int:
    """#{n in [lo, hi] : no prime p < z divides n}."""
    if hi < lo:
        return 0
    alive = np.ones(hi - lo + 1, dtype=bool)
    for p in plain_sieve(z - 1).tolist():
        alive[(-lo) % p :: p] = False
    return int(np.count_nonzero(alive))


# ---------------------------------------------------------------------------
# prime_orbits


def e(t) -> complex:
    return cmath.exp(2j * math.pi * t)


def _signed(v: Fraction) -> Fraction:
    return v if v <= Fraction(1, 2) else v - 1


def exact_orbit_average(alpha: Fraction, freqs, amps, primes, N: int,
                        x: float, y: float, b: int, c: int):
    """(average, scale) of (1/N) sum_p e(b x_p + c y_p) log p.

    x_p = x + p alpha, and the phases m x and p m alpha of the closed Birkhoff
    sum y_p = y + 2 Re sum_m a_m e(m x) (e(p m alpha) - 1) / (e(m alpha) - 1),
    are reduced mod 1 exactly in rationals before any float enters.  scale is
    (1/N) sum_p log p, the sum of the absolute values of the terms.
    """
    xf = Fraction(x)
    coef, m_alpha = [], []
    for m, a in zip(freqs, amps):
        v = (m * alpha) % 1
        coef.append(complex(a) * e(float((m * xf) % 1)) / (e(float(_signed(v))) - 1.0))
        m_alpha.append(v)
    total = []
    for p in primes:
        p = int(p)
        xp = float((xf + p * alpha) % 1)
        yp = y + sum(2.0 * (k * (e(float((p * v) % 1)) - 1.0)).real
                     for k, v in zip(coef, m_alpha))
        total.append(e(b * xp + c * yp) * math.log(p))
    scale = math.fsum(math.log(int(p)) for p in primes) / N
    return complex(math.fsum(t.real for t in total), math.fsum(t.imag for t in total)) / N, scale


def orbit_tolerance(alpha: Fraction, freqs, amps, x: float, b: int, c: int) -> float:
    """Relative tolerance of a float64 evaluation of the orbit average.

    The phases p alpha and p m alpha are exact to about one ulp after
    double-double reduction, but the per-frequency factor
    K_m = a_m e(m x) / (e(m alpha) - 1) carries the rounding of its argument
    2 pi m x (relative error ~ 4 pi m |x| eps) and of the cancellation in
    e(m alpha) - 1 (~ 2 eps / |e(m alpha) - 1|).  Each K_m enters y_p with
    weight 2 |e(p m alpha) - 1| <= 4, and y_p enters the term through
    e(c y_p), so
        dy = sum_m 4 |K_m| (rho_m + 4 eps),  Y = |y_p| <= 1 + 4 sum_m |K_m|,
        tol = REL_DD + 2 pi |c| (dy + eps Y) + 8 pi |b| eps
    relative to the sum of the absolute values of the terms.
    """
    eps = 2.0**-52
    dy = Y = 0.0
    for m, a in zip(freqs, amps):
        den = abs(e(float(_signed((m * alpha) % 1))) - 1.0)
        K = abs(a) / den
        rho = eps * (4 * math.pi * m * abs(x) + 8 + 2 / den)
        dy += 4 * K * (rho + 4 * eps)
        Y += 4 * K
    return REL_DD + 2 * math.pi * abs(c) * (dy + eps * (1 + Y)) + 8 * math.pi * abs(b) * eps


def check_prime_count(drawn: int, pi_n: int):
    if drawn != pi_n:
        return f"program drew {drawn} primes <= N, the sieve counts {pi_n}"
    return None


def check_close(got, want, scale: float, what: str, rel: float = REL_DD):
    """|got - want| <= rel * scale, with scale the sum of |terms|."""
    diff = abs(complex(got) - complex(want))
    if not diff <= rel * scale:
        return f"{what}: |{got} - {want}| = {diff:.3e} exceeds {rel:.0e} * {scale:.6g}"
    return None


def check_orbit_bound(avg):
    if not abs(avg) < ORBIT_AVG_BOUND:
        return f"|average| = {abs(avg):.4f} not below {ORBIT_AVG_BOUND}"
    return None


# ---------------------------------------------------------------------------
# prime_windows


def dyadic_phases(numerators, shift: int, d: np.ndarray) -> np.ndarray:
    """frac(sum_i K_i d^i / 2^shift) for d >= 0, exact modulo 2^64 in uint64.

    numerators[i-1] = K_i; shift <= 64.  Wrapping uint64 arithmetic is exact
    mod 2^64, hence mod 2^shift; the only rounding is the final division.
    """
    d = d.astype(np.uint64)
    acc = np.zeros(d.shape, dtype=np.uint64)
    power = np.ones(d.shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for K in numerators:
            power = power * d
            acc = acc + np.uint64(K % (1 << 64)) * power
    if shift < 64:
        acc = acc & np.uint64((1 << shift) - 1)
    return acc.astype(np.float64) / float(1 << shift)


def exact_ms_gap(N: int, H: int, numerators, shift: int):
    """(gap, scale) for r = 1: |sum_p e(g(p)) log p - sum_n e(g(n))| over [N, N+H]."""
    ps = window_primes(N, N + H)
    ns = np.arange(N, N + H + 1, dtype=np.int64)
    logp = np.log(ps.astype(np.float64))
    if numerators:
        wp = np.exp(2j * np.pi * dyadic_phases(numerators, shift, ps - N))
        wn = np.exp(2j * np.pi * dyadic_phases(numerators, shift, ns - N))
        s = complex(math.fsum((wp.real * logp).tolist()), math.fsum((wp.imag * logp).tolist()))
        m = complex(math.fsum(wn.real.tolist()), math.fsum(wn.imag.tolist()))
        gap = abs(s - m)
    else:  # degree 0: |theta(N+H) - theta(N-1) - (H+1)|
        gap = abs(theta(ps) - (H + 1))
    return gap, theta(ps) + H + 1


def class_cumsum_l1(primes: np.ndarray, x: int, H: int, q: int, r: int) -> float:
    """sum_{y<x} sum_v |S_v(y) - H/r| by one cumulative sum per class v.

    S_v(y) is the log-weight of primes p in [y, y+H] with (p mod q) mod r = v.
    The x terms of a class are added pairwise by numpy; that rounding, about
    1e-15 relative, is far below the 1e-12 tolerance of the check.
    """
    primes = primes[primes <= x - 1 + H]
    logp = np.log(primes.astype(np.float64))
    classes = (primes % q) % r
    total = 0.0
    for v in range(r):
        w = np.zeros(x + H + 1)
        sel = classes == v
        w[primes[sel]] = logp[sel]
        cum = np.concatenate(([0.0], np.cumsum(w)))  # cum[t] = weight below t
        window = cum[H + 1:H + 1 + x] - cum[:x]  # S_v(y) for y < x
        total += float(np.abs(window - H / r).sum())
    return total


def sliding_l1_bounds(primes: np.ndarray, x: int, H: int):
    """(lower, upper) for sum_{y<x} sum_v |S_v(y) - H/r|, any q and r.

    With W(y) = sum_v S_v(y): sum_v |S_v - H/r| >= |W - H| and <= W + H.
    """
    primes = primes[primes <= x - 1 + H]
    w = np.zeros(x + H + 1)
    w[primes] = np.log(primes.astype(np.float64))
    cum = np.concatenate(([0.0], np.cumsum(w)))
    W = cum[H + 1:H + 1 + x] - cum[:x]  # W(y) for y < x
    return float(np.abs(W - H).sum()), float((W + H).sum())


def window_sup_bounds(primes: np.ndarray, x: int, q: int, r: int, Hp: int):
    """(beta = 0 value, triangle bound) of the huxley_stat_windows statistic at H = x.

    Each window z < q sums D(u) = W(u) - [(u, q) = 1] x / phi(q) over
    u in [z, z + Hp], u < q, split by u mod r.  At beta = 0 the sup over v is
    max_v |sum D|; for every beta it is at most sum |D|.
    """
    primes = primes[primes <= x]
    W = np.bincount(primes % q, weights=np.log(primes.astype(np.float64)), minlength=q)
    u = np.arange(q)
    D = W - np.where(np.gcd(u, q) == 1, x / phi(q), 0.0)
    low, high = [], []
    for z in range(q):
        seg = slice(z, min(z + Hp + 1, q))
        low.append(float(np.max(np.abs(np.bincount(u[seg] % r, weights=D[seg], minlength=r)))))
        high.append(float(np.sum(np.abs(D[seg]))))
    return math.fsum(low), math.fsum(high)


def check_between(value: float, low: float, high: float, what: str, rel: float = REL_DD):
    slack = rel * max(abs(low), abs(high))
    if not low - slack <= value <= high + slack:
        return f"{what} = {value!r} outside [{low!r}, {high!r}]"
    return None


# ---------------------------------------------------------------------------
# characters


def unit_counts(q: int, r: int) -> np.ndarray:
    """n_v = #{a < q : (a, q) = 1, a = v mod r}."""
    a = np.arange(q)
    return np.bincount(a[np.gcd(a, q) == 1] % r, minlength=r)


def check_progression_parseval(stats, q: int, r: int):
    """sum over non-principal chi of stat(chi)^2 against the orthogonality sum.

    With S_v(chi) = sum_{a = v (r)} chi(a), orthogonality gives
    sum_{chi != chi_0} sum_v |S_v|^2 = sum_v (phi(q) n_v - n_v^2) =: P, and
    L2 <= L1 <= sqrt(r) L2 per character gives P <= sum stat^2 <= r P.
    """
    n = unit_counts(q, r).astype(np.float64)
    P = float(np.sum(phi(q) * n - n * n))
    got = math.fsum(float(s) ** 2 for s in stats)
    return check_between(got, P, r * P, f"sum of squared progression stats mod {q}, r={r}",
                         rel=ABS_CHAR)


def check_character_rows(q: int, rows: np.ndarray, n_chars: int, n_primitive: int,
                         gauss_abs, quadratic_rows):
    """Checks on every non-principal value row of the table mod q.

    rows: (phi(q) - 1) x q complex; n_chars counts the whole table.
    """
    ph = phi(q)
    if n_chars != ph:
        return f"q={q}: {n_chars} characters, phi(q) = {ph}"
    if n_primitive != primitive_count(q):
        return f"q={q}: {n_primitive} primitive characters, formula gives {primitive_count(q)}"
    period = float(np.max(np.abs(rows.sum(axis=1)))) if len(rows) else 0.0
    if not period < ABS_CHAR:
        return f"q={q}: full-period sum {period:.3e}"
    # second orthogonality relation: sum over all chi of chi(a) = phi(q) [a = 1]
    a = np.arange(q)
    column = rows.sum(axis=0) + (np.gcd(a, q) == 1)
    target = np.zeros(q)
    target[1 % q] = ph
    col_defect = float(np.max(np.abs(column - target)))
    if not col_defect < ABS_CHAR:
        return f"q={q}: column orthogonality defect {col_defect:.3e}"
    worst_gauss = max((abs(g - math.sqrt(q)) for g in gauss_abs), default=0.0)
    if not worst_gauss < ABS_CHAR:
        return f"q={q}: ||G| - sqrt(q)| = {worst_gauss:.3e}"
    if quadratic_rows is not None:
        if len(quadratic_rows) != 1:
            return f"q={q}: {len(quadratic_rows)} characters of order 2 mod a prime"
        dev = float(np.max(np.abs(quadratic_rows[0] - legendre_row(q))))
        if not dev < ABS_CHAR:
            return f"q={q}: order-2 character differs from Euler's criterion by {dev:.3e}"
    return None


def twisted_stat_bounds(q: int, Hp: int):
    """(beta = 0 value, unit-count bound) of windowed_twisted_stat for the
    quadratic character mod the odd prime q, windows a in [z, z+Hp], a < q."""
    chi = legendre_row(q)
    units = (np.arange(q) % q != 0).astype(np.float64)
    low = high = 0.0
    for z in range(q):
        seg = slice(z, min(z + Hp + 1, q))
        low += abs(float(np.sum(chi[seg])))
        high += float(np.sum(units[seg]))
    return low, high


# ---------------------------------------------------------------------------
# exact_constructions


def von_mangoldt_coords(n: int) -> dict:
    """Lambda(n) in the basis {log p}: {p: 1} on prime powers, {} elsewhere."""
    f = factor(n) if n > 1 else {}
    return {next(iter(f)): Fraction(1)} if len(f) == 1 else {}


def linnik_rhs(n: int, z: int) -> Fraction:
    """1/a when n = p^a with p > z, else 0."""
    f = factor(n)
    if len(f) == 1:
        (p, a), = f.items()
        if p > z:
            return Fraction(1, a)
    return Fraction(0)


def check_equal(got, want, what: str):
    if got != want:
        return f"{what}: got {got!r}, expected {want!r}"
    return None


def check_phi(n: int, passed: bool):
    """Criterion 11: verify_phi passes at every stage."""
    return None if passed else f"verify_phi failed at stage {n}"


def check_bump(n: int, bump: float):
    """Criterion 11: the bump averages alternate, high at odd stages (target 1/2)."""
    if (n % 2 == 1 and not bump > 0.9) or (n % 2 == 0 and not bump < 0.1):
        return f"bump average {bump:.3f} at stage {n} breaks the alternation"
    return None
