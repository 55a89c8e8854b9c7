"""Exact continued-fraction arithmetic for the rotation number alpha.

Everything here is integer/rational and exact: convergents p_k/q_k and
distances ``|n*alpha|`` to the nearest integer with certified error bounds.
alpha is specified by its partial quotients, or by a decimal string whose
last digit fixes the precision that the expansion tracks.
"""

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from skewlab.dd import dd_from_fraction
from skewlab.errors import InvalidInputError, PrecisionError, RangeError


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

    def __init__(self, quotients):
        quotients = [int(a) for a in quotients]
        if not quotients:
            raise InvalidInputError("quotient list is empty")
        if any(a < 1 for a in quotients):
            raise InvalidInputError("all partial quotients must be >= 1")
        self.quotients = quotients
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
        return f"ContinuedFraction([{head}{tail}])"

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

    def _frac(self, n: int, signed: bool) -> Fraction:
        """frac(n*value) in [0, 1), or in (-1/2, 1/2] if signed; PrecisionError if frac(n*alpha)
        may lie across 0, 1 or (signed) 1/2.  On integers: value = P/Q, err = 1/(Q(Q + Q'));
        r = n P mod Q lies D/(2Q) from the nearest edge, refused iff |n| err >= D/(2Q)."""
        P, Q, Q1 = self._p[-1], self._q[-1], self._q[-2]
        r = n * P % Q
        D = min(2 * r, 2 * (Q - r), abs(2 * r - Q)) if signed else min(2 * r, 2 * (Q - r))
        if n and 2 * abs(n) >= D * (Q + Q1):
            u = float(abs(n) * self.err)
            raise PrecisionError(f"frac({n}*alpha) = {r / Q:.3e} lies {D / (2 * Q):.3e} from "
                                 f"an edge, not separated at uncertainty {u:.3e}")
        return Fraction(r - Q if signed and 2 * r > Q else r, Q)

    def frac01(self, n: int) -> Fraction:
        """Exact rational frac(n * value) in [0, 1); certified within |n|*err."""
        return self._frac(n, False)

    def frac_signed(self, n: int) -> Fraction:
        """n*alpha reduced to (-1/2, 1/2]; certified within |n|*err of an integer and of 1/2."""
        return self._frac(n, True)

    def dist_to_integers(self, n: int) -> Fraction:
        """||n*alpha|| in [0, 1/2], exact to the tracked precision."""
        v = self.frac01(abs(n))
        return min(v, 1 - v)

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


def frac_phase(x: float, m: int, r) -> float:
    """frac(m x + r) for a double x, an integer m and an int or Fraction r (as frac01 gives),
    on plain integers: x = X / 2**k exactly, so the phase is one residue over 2**k times r's
    denominator, and one int/int division rounds it correctly, as float(Fraction) does."""
    X, D = x.as_integer_ratio()
    den = D * r.denominator
    return (m * X * r.denominator + r.numerator * D) % den / den


def cf_from_real(alpha: str, depth: int) -> ContinuedFraction:
    """Expand a decimal string in (0,1), like "0.61803...", to ``depth`` partial quotients.

    The uncertainty u is one unit in the last digit, so the interval
    [alpha-u, alpha+u] has nonzero width.  Expansion proceeds on it and stops
    with PrecisionError as soon as it no longer pins down the next quotient,
    naming the last reliable index.
    """
    x = Fraction(alpha)
    try:  # one unit in the last digit: 6.18e-1 has three, as 0.618
        u = Fraction(10) ** Decimal(alpha).as_tuple().exponent
    except ArithmeticError:  # a Fraction literal such as 1/3 has no last digit
        raise InvalidInputError(f"alpha {alpha!r} is not a decimal") from None
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
    return ContinuedFraction(quotients)
