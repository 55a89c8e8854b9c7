"""Prime sums twisted by polynomial phases in short windows.

The phase polynomial is stored in the shifted basis g(n) = sum_i c_i (n-N)^i,
exactly as its coefficient bounds are stated.  Phases are reduced mod 1 by a
double-double Horner scheme (folding after every step, which is exact because
n - N is an integer), so e(g(p)) stays accurate up to window lengths ~1e8.
The guaranteed regime is |gamma_1| <= e^(-r) (the outline's normalization
tau = 1) and |gamma_i| <= H^(1-i); sums outside it warn.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from skewlab.dd import frac01_poly_dd
from skewlab.errors import InvalidInputError, RangeError
from skewlab.primes import default_source, euler_phi
from skewlab.skew_dynamics import e


@dataclass(frozen=True)
class ShiftedPoly:
    """g(n) = sum_{i=1..k} coeffs[i-1] * (n - base)^i."""

    base: int
    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs)

    def phase01(self, n):
        """frac(g(n)) in [0,1) for an integer array n."""
        n = np.asarray(n, dtype=np.int64)
        k = len(self.coeffs)
        if k == 0:
            return np.zeros(n.shape)
        hi = np.zeros(k + 1)
        lo = np.zeros(k + 1)
        hi[1:] = np.asarray(self.coeffs, dtype=np.float64)
        x = (n - self.base).astype(np.float64)
        return frac01_poly_dd(x, hi, lo)


def _check_regime(g: ShiftedPoly, H: int, r: int):
    if g.degree >= 1 and abs(g.coeffs[0]) > math.exp(-r):
        warnings.warn(
            f"|gamma_1| = {abs(g.coeffs[0]):.3e} exceeds e^(-r); outside the "
            "guaranteed regime", stacklevel=3)
    for i in range(2, g.degree + 1):
        if abs(g.coeffs[i - 1]) > float(H) ** (-i + 1):
            warnings.warn(
                f"|gamma_{i}| = {abs(g.coeffs[i - 1]):.3e} exceeds H^(-{i}+1); outside "
                "the guaranteed regime", stacklevel=3)


def prime_phase_sum(N: int, H: int, r: int, a: int, g: ShiftedPoly,
                    primes=None) -> complex:
    """sum over primes p in [N, N+H], p = a mod r, of e(g(p)) log p."""
    if math.gcd(a, r) != 1:
        raise InvalidInputError(f"need (a, r) = 1, got ({a}, {r})")
    src = primes if primes is not None else default_source()
    if N + H > src.limit:
        raise RangeError(f"window end {N + H} beyond prime source limit")
    _check_regime(g, H, r)
    ps = src.primes_in(N, N + H)
    if r > 1:
        ps = ps[ps % r == a % r]
    if len(ps) == 0:
        return 0j
    logp = np.log(ps.astype(np.float64))
    return complex(np.sum(e(g.phase01(ps)) * logp))


def integer_phase_main_term(N: int, H: int, r: int, g: ShiftedPoly) -> complex:
    """(1/phi(r)) sum over integers n in [N, N+H] of e(g(n))."""
    if r < 1:
        raise InvalidInputError("r must be >= 1")
    ns = np.arange(N, N + H + 1, dtype=np.int64)
    return complex(np.sum(e(g.phase01(ns))) / euler_phi(r))


def _check_window(N: int, H: int):
    if N < 2 or H < 1:
        raise InvalidInputError(f"need N >= 2 and H >= 1, got N={N}, H={H}")


def ms_gap(N: int, H: int, r: int, a: int, g: ShiftedPoly, eta: float, primes=None):
    """(gap, budget): the defect against the integer main term and the
    eta log(1/eta) H / phi(r) comparison scale."""
    _check_window(N, H)
    if not 0 < eta < 1:
        raise InvalidInputError(f"need eta in (0, 1), got eta={eta}")
    s = prime_phase_sum(N, H, r, a, g, primes=primes)
    m = integer_phase_main_term(N, H, r, g)
    budget = eta * math.log(1.0 / eta) * H / euler_phi(r)
    return abs(s - m), budget


def oscillation_classify(g: ShiftedPoly, H: int, N: int, B: float):
    """('non-oscillatory', q) with the witness q, or ('oscillatory', None).

    Non-oscillatory means some q <= (log N)^B has ||q gamma_i|| <=
    (log N)^B / H^i for every i; otherwise some coefficient is far from all
    low-height rationals and the Weyl regime applies.
    """
    _check_window(N, H)
    if B <= 0:
        raise InvalidInputError("B must be positive")
    Q = max(1, math.floor(math.log(N) ** B))
    thresh = [math.log(N) ** B / float(H) ** i for i in range(1, g.degree + 1)]
    for q in range(1, Q + 1):
        ok = True
        for i, c in enumerate(g.coeffs, start=1):
            v = (q * c) % 1.0
            if min(v, 1.0 - v) > thresh[i - 1]:
                ok = False
                break
        if ok:
            return "non-oscillatory", q
    return "oscillatory", None
