"""Prime sums twisted by polynomial phases in short windows.

The phase polynomial is stored in the shifted basis g(n) = sum_i c_i (n-N)^i,
exactly as its coefficient bounds are stated.  Phases are reduced mod 1 by a
double-double Horner scheme (folding after every step, which is exact because
n - N is an integer), so e(g(p)) stays accurate up to window lengths ~1e8.
The guaranteed regime is |gamma_1| <= e^(-r) (the outline's normalization
tau = 1) and |gamma_i| <= H^(1-i); sums outside it warn.

Both sums of ms_gap stream: the prime sum walks the prime windows of
[N, N+H] and the integer main term sums PHASE_CHUNK integers at a time, so
memory does not grow with H, and time alone sets its budget MS_SUM_MAX_H.
Within a window or chunk the phases are formed PHASE_PIECE at a time into one
array of terms, so the Horner temporaries do not grow with it either.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from skewlab.dd import e, frac01_poly_dd
from skewlab.errors import InvalidInputError, RangeError, ResourceError
from skewlab.primes import default_source, euler_phi, prime_windows

# integers per chunk of the main term, the unit of its np.sum
PHASE_CHUNK = 1 << 17
# integers or primes whose phases are formed at a time: a degree-3 phase holds ~2.5 MB
# of Horner temporaries for them, where a whole chunk of 2**17 held 20 MB
PHASE_PIECE = 1 << 14
CLASSIFY_MAX_Q = 10**7  # values of q oscillation_classify scans: 0.5-1 s at degree 3
CLASSIFY_BLOCK = 1 << 16  # values of q it tests at a time
MS_SUM_MAX_H = 10**8  # main-term integers: 2 s at degree 0, 7-8 s at degree 3, 36 MB peak RSS


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
        coeff = np.zeros(k + 1)
        coeff[1:] = np.asarray(self.coeffs, dtype=np.float64)
        x = (n - self.base).astype(np.float64)
        return frac01_poly_dd(x, coeff)


def _phase_terms(g: ShiftedPoly, ns: np.ndarray, weights=None) -> np.ndarray:
    """e(g(n)), times weights if given, for the integers ns, formed PHASE_PIECE at a
    time into one complex array.  Both work element by element, so each term has the
    bits of one whole-array expression."""
    out = np.empty(len(ns), dtype=np.complex128)
    for i in range(0, len(ns), PHASE_PIECE):
        piece = slice(i, i + PHASE_PIECE)
        out[piece] = e(g.phase01(ns[piece]))
        if weights is not None:
            out[piece] *= weights[piece]
    return out


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
    if r < 1:  # before _check_regime, whose e^(-r) overflows for r << 0
        raise InvalidInputError("r must be >= 1")
    if math.gcd(a, r) != 1:
        raise InvalidInputError(f"need (a, r) = 1, got ({a}, {r})")
    src = primes if primes is not None else default_source()
    if N + H > src.limit:
        raise RangeError(f"window end {N + H} beyond prime source limit")
    _check_regime(g, H, r)
    total = 0j
    for *_, ps, logp in prime_windows(src, N + H, N):
        if r > 1:  # p <= N + H, so p mod r = p mod min(r, N + H + 1), within int64
            keep = ps % min(r, N + H + 1) == a % r
            ps, logp = ps[keep], logp[keep]
        if len(ps):
            total += complex(np.sum(_phase_terms(g, ps, logp)))
    return total


def _check_main_term(N: int, H: int, r: int):
    if r < 1:
        raise InvalidInputError("r must be >= 1")
    if H > MS_SUM_MAX_H:
        raise ResourceError(f"main term budget is H <= {MS_SUM_MAX_H}, got H={H}")
    if max(abs(N), abs(N + H)) >= 2**63:
        raise RangeError(f"window [{N}, {N + H}] leaves int64")


def integer_phase_main_term(N: int, H: int, r: int, g: ShiftedPoly) -> complex:
    """(1/phi(r)) sum over integers n in [N, N+H] of e(g(n)), PHASE_CHUNK
    integers at a time, for H <= MS_SUM_MAX_H."""
    _check_main_term(N, H, r)
    total = 0j
    for lo in range(N, N + H + 1, PHASE_CHUNK):
        ns = np.arange(lo, min(lo + PHASE_CHUNK, N + H + 1), dtype=np.int64)
        total += complex(np.sum(_phase_terms(g, ns)))
    return total / euler_phi(r)


def _check_window(N: int, H: int):
    if N < 2 or H < 1:
        raise InvalidInputError(f"need N >= 2 and H >= 1, got N={N}, H={H}")


def ms_gap(N: int, H: int, r: int, a: int, g: ShiftedPoly, eta: float, primes=None):
    """(gap, budget): the defect against the integer main term and the
    eta log(1/eta) H / phi(r) comparison scale."""
    _check_window(N, H)
    if not 0 < eta < 1:
        raise InvalidInputError(f"need eta in (0, 1), got eta={eta}")
    _check_main_term(N, H, r)  # before the prime sum, and so is euler_phi's budget on r
    budget = eta * math.log(1.0 / eta) * H / euler_phi(r)
    s = prime_phase_sum(N, H, r, a, g, primes=primes)
    m = integer_phase_main_term(N, H, r, g)
    return abs(s - m), budget


def oscillation_classify(g: ShiftedPoly, H: int, N: int, B: float):
    """('non-oscillatory', q) with the witness q, or ('oscillatory', None).

    Non-oscillatory means some q <= (log N)^B has ||q gamma_i|| <=
    (log N)^B / H^i for every i; otherwise some coefficient is far from all
    low-height rationals and the Weyl regime applies.  The q are tested whole-array,
    CLASSIFY_BLOCK at a time, and the least that passes is the witness.  At most
    CLASSIFY_MAX_Q values are scanned: beyond them, with no witness yet, ResourceError.
    """
    _check_window(N, H)
    if B <= 0:
        raise InvalidInputError("B must be positive")
    try:
        height = math.log(N) ** B
    except OverflowError:
        raise RangeError(f"(log N)^B overflows a double at N = {N}, B = {B}") from None
    Q = max(1, math.floor(height))
    thresh = [height / float(H) ** i for i in range(1, g.degree + 1)]
    top = min(Q, CLASSIFY_MAX_Q)
    for lo in range(1, top + 1, CLASSIFY_BLOCK):
        q = np.arange(lo, min(lo + CLASSIFY_BLOCK, top + 1))
        v = np.remainder(np.multiply.outer(q, g.coeffs), 1.0)  # Python's float %, bit for bit
        far = (np.minimum(v, 1.0 - v) > thresh).any(axis=1)
        if not far.all():
            return "non-oscillatory", lo + int(np.argmin(far))
    if Q > CLASSIFY_MAX_Q:
        raise ResourceError(f"classification budget is q <= {CLASSIFY_MAX_Q}, "
                            f"(log N)^B = {height:.3e} asks for q <= {Q}")
    return "oscillatory", None
