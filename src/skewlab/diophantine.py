"""Exact continued-fraction arithmetic for the rotation number alpha.

Everything here is integer/rational and exact: convergents p_k/q_k, distances
``|n*alpha|`` to the nearest integer with certified error bounds, and the
derived scales n_star and K_n used by the approximation machinery.  alpha is
specified primarily by its partial quotients; decimal entry is a convenience
path with explicit precision tracking.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from skewlab.dd import dd_from_fraction
from skewlab.errors import InvalidInputError, PrecisionError, RangeError

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class AnalysisParams:
    """The two knobs of the approximation experiments, and the tau they fix.

    tau_prime in (0, 1/10) is the cocycle's decay rate; delta in (0, 1) sets
    the phase-polynomial degree floor(1/delta) and the range
    m <= q_{n+1}^(1-delta).  tau = min(tau_prime**2, tau_prime/8)/2 is derived,
    not passed; the outline's normalization tau=1 is a different quantity and
    never identified with this one.
    """

    tau_prime: float
    delta: float = 0.2
    tau: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.tau_prime < 0.1:
            raise InvalidInputError(f"tau_prime must lie in (0, 1/10), got {self.tau_prime}")
        if not 0 < self.delta < 1:
            raise InvalidInputError(f"delta must lie in (0,1), got {self.delta}")
        object.__setattr__(self, "tau", min(self.tau_prime**2, self.tau_prime / 8) / 2)


class ContinuedFraction:
    """alpha in (0,1) given by partial quotients a_1, a_2, ... (a_0 = 0).

    Convergents use the standard seeds (p_-1, q_-1) = (1, 0), (p_0, q_0) =
    (0, 1), so q_1 = a_1 and the recursion q_{k+1} = a_{k+1} q_k + q_{k-1}
    holds for all k >= 0.  ``value`` is the deepest computed convergent with
    the tracked error bound ``err``; all frac/dist queries certify their own
    accuracy against n*err and raise PrecisionError when they cannot.
    """

    def __init__(self, quotients, depth=None):
        quotients = [int(a) for a in quotients]
        if not quotients:
            raise InvalidInputError("quotient list is empty")
        if any(a < 1 for a in quotients):
            raise InvalidInputError("all partial quotients must be >= 1")
        if depth is None:
            depth = len(quotients)
        if depth < 1 or depth > len(quotients):
            raise InvalidInputError(f"depth {depth} outside [1, {len(quotients)}]")
        self.quotients = quotients
        self.depth = depth
        p = [1, 0]  # p[-1], p[0] stored at indices 0, 1
        q = [0, 1]
        for a in quotients:
            p.append(a * p[-1] + p[-2])
            q.append(a * q[-1] + q[-2])
        self._p = p  # index k+1 holds p_k
        self._q = q
        L = len(quotients)
        # unknown a_{L+1} >= 1 gives q_{L+1} >= q_L + q_{L-1}
        self.value = Fraction(p[L + 1], q[L + 1])
        self.err = Fraction(1, q[L + 1] * (q[L + 1] + q[L]))
        self._dd = dd_from_fraction(self.value)

    def __repr__(self):
        head = ",".join(str(a) for a in self.quotients[:6])
        tail = ",..." if len(self.quotients) > 6 else ""
        return f"ContinuedFraction([{head}{tail}], depth={self.depth})"

    def p(self, k):
        """Numerator p_k (k >= -1)."""
        if k < -1 or k > len(self.quotients):
            raise RangeError(f"p_{k} not computed (have k <= {len(self.quotients)})")
        return self._p[k + 1]

    def q(self, k):
        """Denominator q_k (k >= -1)."""
        if k < -1 or k > len(self.quotients):
            raise RangeError(f"q_{k} not computed (have k <= {len(self.quotients)})")
        return self._q[k + 1]

    def convergent(self, k) -> Fraction:
        return Fraction(self.p(k), self.q(k))

    def max_index(self):
        return len(self.quotients)

    def value_dd(self):
        """(hi, lo) double-double approximation of alpha."""
        return self._dd

    def frac01(self, n: int) -> Fraction:
        """Exact rational frac(n * value) in [0, 1); certified within n*err."""
        v = (n * self.value) % 1
        return v

    def frac_signed(self, n: int) -> Fraction:
        """n*alpha reduced to (-1/2, 1/2], certified; exact rational."""
        v = self.frac01(n)
        return v if v <= HALF else v - 1

    def dist_to_integers(self, n: int) -> Fraction:
        """||n*alpha|| in [0, 1/2], exact to the tracked precision."""
        if n == 0:
            return Fraction(0)
        v = self.frac01(abs(n))
        d = min(v, 1 - v)
        u = abs(n) * self.err
        if d <= u:
            raise PrecisionError(
                f"||{n}*alpha|| = {float(d):.3e} not separated from 0 at uncertainty {float(u):.3e}",
            )
        return d

    def check_laws(self):
        """Recursion, determinant, and approximation-quality invariants.

        Returns the largest k checked.  Raises IntegrityError never: these are
        exact identities of the stored integers, so any failure is a bug and
        surfaces as AssertionError.
        """
        Q, P, a = self._q, self._p, self.quotients
        for k in range(len(a)):
            assert P[k + 2] == a[k] * P[k + 1] + P[k]
            assert Q[k + 2] == a[k] * Q[k + 1] + Q[k]
        for k in range(0, len(a) + 1):
            det = P[k + 1] * Q[k] - P[k] * Q[k + 1]
            assert det == (-1) ** (k - 1), (k, det)
        return len(a)


def cf_from_quotients(quotients, depth=None) -> ContinuedFraction:
    """ContinuedFraction from explicit partial quotients."""
    return ContinuedFraction(quotients, depth)


def cf_from_real(alpha, depth, uncertainty=None) -> ContinuedFraction:
    """Expand a high-precision real in (0,1) to ``depth`` partial quotients.

    alpha may be a Fraction (exact), a decimal string like "0.61803..."
    (uncertainty one unit in the last place unless given), or a float (one
    ulp).  Expansion proceeds on the interval [alpha-u, alpha+u] and stops
    with PrecisionError as soon as the interval no longer pins down the next
    quotient, naming the last reliable index.
    """
    if isinstance(alpha, str):
        x = Fraction(alpha)
        if uncertainty is None:
            digits = len(alpha.split(".")[1]) if "." in alpha else 0
            uncertainty = Fraction(1, 10**digits)
        u = Fraction(uncertainty)
    elif isinstance(alpha, Fraction):
        x = alpha
        u = Fraction(uncertainty) if uncertainty is not None else Fraction(0)
    elif isinstance(alpha, float):
        x = Fraction(alpha)
        u = Fraction(uncertainty) if uncertainty is not None else Fraction(math.ulp(alpha))
    else:
        raise InvalidInputError(f"unsupported alpha type {type(alpha)!r}")
    if not 0 < x < 1:
        raise InvalidInputError("alpha must lie in (0, 1)")

    lo, hi = x - u, x + u
    quotients = []
    for k in range(1, depth + 1):
        if lo <= 0:
            raise PrecisionError(
                f"precision exhausted before index {k} (interval touches a rational)",
                last_reliable=k - 1,
            )
        # invert: x in (lo, hi) -> 1/x in (1/hi, 1/lo)
        inv_lo, inv_hi = 1 / hi, 1 / lo
        a_lo = math.floor(inv_lo)
        a_hi = math.floor(inv_hi)
        if a_lo != a_hi:
            raise PrecisionError(
                f"quotient a_{k} ambiguous ({a_lo} vs {a_hi})", last_reliable=k - 1
            )
        quotients.append(a_lo)
        lo, hi = inv_lo - a_lo, inv_hi - a_lo
        if lo == hi == 0:
            if k < depth:
                raise PrecisionError(
                    f"expansion terminates at index {k} (rational input)", last_reliable=k
                )
            break
    return ContinuedFraction(quotients, depth)


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
