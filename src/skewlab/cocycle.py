"""Analytic cocycles as truncated Fourier series and their Birkhoff sums.

A real-valued cocycle g(x) = sum_m a_m e(m x) is stored by its positive
frequencies with the conjugate coefficients implied, so evaluation is real by
construction.  Birkhoff sums come in two routes that cross-check each other:
the direct n-term orbit sum, and the closed per-frequency form
S_n(e_m)(x) = e_m(x) (e_m(n alpha) - 1)/(e_m(alpha) - 1) whose cost does not
grow with n.  Fractional parts of large multiples of alpha come from exact
integer arithmetic (per frequency) or the offset split of dd.frac01_int_mult
(per orbit); the phase m x of the closed form is reduced exactly too, on plain
integers, so dd.e gets an argument in [0, 1) that carries no error of m x.
Every phase goes through dd.e, and the closed form takes whole arrays of rows.
"""

import math

import numpy as np

from skewlab.dd import e, frac01_int_mult
from skewlab.diophantine import ContinuedFraction, frac_phase
from skewlab.errors import InvalidInputError, PrecisionError

_MIN_DENOM = 1e-300  # ||m*alpha|| below this is outside double range
BOUND_GRID = 1 << 12  # grid points of the sampled sup of TrigPoly.sup_norm


class TrigPoly:
    """Real trigonometric polynomial given by its positive-frequency amplitudes."""

    def __init__(self, freqs, amps):
        freqs = np.asarray(freqs, dtype=np.int64)
        amps = np.asarray(amps, dtype=np.complex128)
        if len(freqs) != len(amps):
            raise InvalidInputError("freqs and amps must have equal length")
        if np.any(freqs <= 0):
            raise InvalidInputError("TrigPoly stores positive frequencies only")
        order = np.argsort(freqs)
        self.freqs = freqs[order]
        self.amps = amps[order]
        if len(np.unique(self.freqs)) != len(self.freqs):
            raise InvalidInputError("duplicate frequencies")

    def eval(self, x):
        """Value at x (scalar or array); real by conjugate symmetry.  One e() over every
        x times every frequency."""
        x = np.asarray(x, dtype=np.float64)
        out = 2.0 * (self.amps * e(x[..., None] * self.freqs)).real.sum(axis=-1)
        return out if out.shape else float(out)

    def derivative(self, order=1):
        """Exact derivative by frequency multiplication (2*pi*i*m)^order."""
        factor = (2j * math.pi * self.freqs.astype(np.float64)) ** order
        return TrigPoly(self.freqs.copy(), self.amps * factor)

    def sup_norm(self):
        """(grid max, refined max) of |f| over BOUND_GRID uniform points plus one Newton step."""
        xs = np.arange(BOUND_GRID) / BOUND_GRID
        vals = np.abs(self.eval(xs))
        i = int(np.argmax(vals))
        grid_max = float(vals[i])
        if len(self.freqs) == 0:
            return grid_max, grid_max
        x0 = xs[i]
        d1 = self.derivative(1).eval(x0)
        d2 = self.derivative(2).eval(x0)
        if d2 != 0:
            x1 = x0 - d1 / d2
            refined = max(grid_max, float(abs(self.eval(x1 % 1.0))))
        else:
            refined = grid_max
        return grid_max, refined


def _fold_two_sided(pairs):
    """Collapse {m: a_m} with optional negative keys into positive-only arrays."""
    pos = {}
    for m, a in pairs.items():
        m = int(m)
        a = complex(a)
        if m == 0:
            if a != 0:
                raise InvalidInputError("zero-mean required: a_0 must be absent or 0")
            continue
        key = abs(m)
        val = a if m > 0 else np.conj(a)
        if key in pos:
            if not np.isclose(pos[key], val, rtol=0, atol=1e-15):
                raise InvalidInputError(f"conflicting coefficients at |m| = {key}")
        else:
            pos[key] = val
    freqs = sorted(pos)
    return np.array(freqs, dtype=np.int64), np.array([pos[m] for m in freqs])


class AnalyticCocycle(TrigPoly):
    """Zero-mean real-analytic cocycle with an exponential decay certificate.

    Rejects any coefficient with |a_m| > exp(-decay_rate * |m|).
    """

    def __init__(self, coefficients, decay_rate, m_max=None):
        freqs, amps = _fold_two_sided(dict(coefficients))
        if not decay_rate > 0:
            raise InvalidInputError(f"decay rate must be > 0, got {decay_rate}")
        if m_max is None:
            # smallest M with e^{-tau' M} below double-precision noise
            m_max = -math.log(1e-16) / decay_rate
            if m_max == math.inf:
                raise InvalidInputError(f"decay rate {decay_rate} puts M_max beyond float range")
            m_max = math.ceil(m_max)
        if len(freqs) and freqs[-1] > m_max:
            raise InvalidInputError(f"frequency {freqs[-1]} beyond M_max = {m_max}")
        bound = np.exp(-decay_rate * freqs.astype(np.float64))
        bad = np.abs(amps) > bound * (1 + 1e-12)
        if np.any(bad):
            m = int(freqs[np.argmax(bad)])
            raise InvalidInputError(
                f"|a_{m}| = {abs(amps[np.argmax(bad)]):.3e} violates decay e^(-{decay_rate}*{m})"
            )
        super().__init__(freqs, amps)
        self.decay_rate = float(decay_rate)
        self.m_max = int(m_max)

    def restrict(self, keep_freqs):
        """Sub-cocycle supported on the given positive frequencies."""
        keep = np.isin(self.freqs, np.asarray(list(keep_freqs), dtype=np.int64))
        return AnalyticCocycle(
            {int(m): a for m, a in zip(self.freqs[keep], self.amps[keep])},
            self.decay_rate,
            self.m_max,
        )

    @classmethod
    def from_csv(cls, path, decay_rate):
        """Read lines `m, re(a_m), im(a_m)`; negative-m lines optional."""
        coeffs = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                m, re, im = line.split(",")
                coeffs[int(m)] = complex(float(re), float(im))
        return cls(coeffs, decay_rate)


class ReducedCocycle:
    """The block decomposition of g along multiples of denominators.

    Block n keeps the frequencies m with q_n | m and
    q_n <= |m| <= log(q_{n+1}) / tau'^2; each frequency lands in the largest
    eligible n, so supports are pairwise disjoint.  Frequencies of g outside
    every block form the residual.
    """

    def __init__(self, blocks, residual, depth):
        self.blocks = blocks  # dict n -> AnalyticCocycle
        self.residual = residual  # set of positive frequencies
        self.depth = depth


def reduce(g: AnalyticCocycle, cf: ContinuedFraction, params, depth: int) -> ReducedCocycle:
    """Split g into denominator blocks up to the given index."""
    if depth + 1 > cf.max_index():
        raise InvalidInputError(f"need convergents to depth {depth + 1}")
    tp2 = params.tau_prime**2
    assigned = {}
    for m in g.freqs:
        m = int(m)
        for n in range(depth, 0, -1):
            qn = cf.q(n)
            if m % qn == 0 and qn <= m <= math.log(cf.q(n + 1)) / tp2:
                assigned.setdefault(n, []).append(m)
                break
    blocks = {}
    used = set()
    for n, ms in assigned.items():
        blocks[n] = g.restrict(ms)
        used.update(ms)
    residual = {int(m) for m in g.freqs} - used
    return ReducedCocycle(blocks, residual, depth=depth)


# ---------------------------------------------------------------------------
# Birkhoff sums


def orbit_angles(cf: ContinuedFraction, ks: np.ndarray, x: float) -> np.ndarray:
    """frac(x + k*alpha) in [0, 1) for the integer array ks.

    frac(k*alpha) comes from dd.frac01_int_mult's offset split, within 2**-53 +
    2**-62 + |k| 2**-106 of exact for the dd value of alpha; adding x rounds once more.
    """
    out = frac01_int_mult(ks, *cf.value_dd()) + (x % 1.0)
    out -= np.floor(out)
    return out


def birkhoff_direct(g, cf: ContinuedFraction, n: int, x: float) -> float:
    """S_n(g)(x) by the direct n-term orbit sum; S_0 = 0."""
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    if n == 0:
        return 0.0
    return float(np.sum(g.eval(orbit_angles(cf, np.arange(n, dtype=np.int64), x))))


def _kernel_ratio(cf: ContinuedFraction, ms, n):
    """(sines, half) with (e_m(n alpha) - 1) / (e_m(alpha) - 1) = sines e(half) for every n
    of the array n and every frequency m of ms, shaped n.shape + ms.shape, from exact signed
    fractional parts; the caller's one e() call takes half.

    sines = sin(pi u) / sin(pi v) and half = (u - v) / 2 with u = m n alpha and v = m alpha
    reduced to (-1/2, 1/2]: the sines keep their relative accuracy however small ||m alpha|| is.
    """
    frac = np.frompyfunc(lambda k, m: float(cf.frac_signed(k * m)), 2, 1)
    sine = np.frompyfunc(math.sin, 1, 1)  # per element: the sine ratio in libm's bits
    v = frac(1, ms).astype(np.float64)
    if np.any(tiny := np.abs(v) < _MIN_DENOM):
        raise PrecisionError(f"||{ms[np.argmax(tiny)]}*alpha|| below double-precision floor")
    u = frac(np.asarray(n).astype(object)[..., None], ms).astype(np.float64)
    return (sine(math.pi * u) / sine(math.pi * v)).astype(np.float64), (u - v) / 2


def birkhoff_closed(g, cf: ContinuedFraction, n, x, orbit_shift=0):
    """S_n(g)(x + orbit_shift * alpha) by the closed per-frequency form, elementwise over
    broadcast arrays of n, x and orbit_shift: a float when all three are scalars.

    Cost independent of n.  The phase m x + m orbit_shift alpha is reduced mod 1 exactly
    (diophantine.frac_phase), so S_m at an orbit point x + k*alpha keeps full accuracy even
    where the kernel ratio is huge (evaluating at the rounded float x + k*alpha would
    amplify its last-bit error by m * |S|, and a float m x rounds by up to m ulp(x)).
    S_0 is exactly 0.0.
    """
    # object arrays of Python ints: m n and m orbit_shift stay exact however large
    n, x, shift = np.broadcast_arrays(np.asarray(n).astype(object), np.asarray(x, np.float64),
                                      np.asarray(orbit_shift).astype(object))
    if np.any(n < 0):
        raise InvalidInputError("n must be >= 0")
    out = np.zeros(n.shape)
    if np.any(live := n != 0):
        phase = np.frompyfunc(lambda y, s, m: frac_phase(y, m, cf.frac01(m * s) if s else 0), 3, 1)
        phases = phase(x[live][:, None], shift[live][:, None], g.freqs).astype(np.float64)
        sines, half = _kernel_ratio(cf, g.freqs, n[live])
        turns = e(np.stack([phases, half]))
        out[live] = 2.0 * (g.amps * turns[0] * (sines * turns[1])).real.sum(axis=-1)
    return out if out.shape else float(out)
