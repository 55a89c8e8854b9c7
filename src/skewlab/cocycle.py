"""Analytic cocycles as truncated Fourier series and their Birkhoff sums.

A real-valued cocycle g(x) = sum_m a_m e(m x) is stored by its positive
frequencies with the conjugate coefficients implied, so evaluation is real by
construction.  Birkhoff sums come in two routes that cross-check each other:
the direct n-term orbit sum, and the closed per-frequency form
S_n(e_m)(x) = e_m(x) (e_m(n alpha) - 1)/(e_m(alpha) - 1) whose cost does not
grow with n.  Fractional parts of large multiples of alpha come from exact
rational arithmetic (per frequency) or double-double reduction (per orbit).
"""

import math

import numpy as np

from skewlab.dd import frac01_int_mult
from skewlab.diophantine import ContinuedFraction
from skewlab.errors import InvalidInputError, PrecisionError

TWO_PI = 2.0 * math.pi

_MIN_DENOM = 1e-300  # ||m*alpha|| below this is outside double range


class TrigPoly:
    """Real trigonometric polynomial given by its positive-frequency amplitudes."""

    def __init__(self, freqs, amps, mean=0.0):
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
        self.mean = float(mean)

    @property
    def coefficients(self):
        """Full two-sided map m -> a_m (conjugate-symmetric)."""
        out = {}
        for m, a in zip(self.freqs, self.amps):
            out[int(m)] = a
            out[-int(m)] = np.conj(a)
        return out

    def eval(self, x):
        """Value at x (scalar or array); real by conjugate symmetry."""
        x = np.asarray(x, dtype=np.float64)
        out = np.full(x.shape, self.mean)
        for m, a in zip(self.freqs, self.amps):
            ang = TWO_PI * m * x
            out = out + 2.0 * (a.real * np.cos(ang) - a.imag * np.sin(ang))
        return out if out.shape else float(out)

    __call__ = eval

    def derivative(self, order=1):
        """Exact derivative by frequency multiplication (2*pi*i*m)^order."""
        factor = (TWO_PI * 1j * self.freqs.astype(np.float64)) ** order
        return TrigPoly(self.freqs.copy(), self.amps * factor)

    def sup_norm(self, grid=1 << 14):
        """(grid max, refined max) of |f| over a uniform grid plus one Newton step."""
        xs = np.arange(grid) / grid
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

    def num_terms(self):
        """Number of nonzero one-sided coefficients."""
        return len(self.freqs)


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
        if m_max is None:
            # smallest M with e^{-tau' M} below double-precision noise
            m_max = math.ceil(-math.log(1e-16) / decay_rate)
        if len(freqs) and freqs[-1] > m_max:
            raise InvalidInputError(f"frequency {freqs[-1]} beyond M_max = {m_max}")
        bound = np.exp(-decay_rate * freqs.astype(np.float64))
        bad = np.abs(amps) > bound * (1 + 1e-12)
        if np.any(bad):
            m = int(freqs[np.argmax(bad)])
            raise InvalidInputError(
                f"|a_{m}| = {abs(amps[np.argmax(bad)]):.3e} violates decay e^(-{decay_rate}*{m})"
            )
        super().__init__(freqs, amps, mean=0.0)
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

    def to_csv(self, path):
        with open(path, "w") as fh:
            for m, a in zip(self.freqs, self.amps):
                fh.write(f"{int(m)},{float(a.real)!r},{float(a.imag)!r}\n")

    @classmethod
    def from_csv(cls, path, decay_rate, m_max=None):
        """Read lines `m, re(a_m), im(a_m)`; negative-m lines optional."""
        coeffs = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                m, re, im = line.split(",")
                coeffs[int(m)] = complex(float(re), float(im))
        return cls(coeffs, decay_rate, m_max)


class ReducedCocycle:
    """The block decomposition of g along multiples of denominators.

    Block n keeps the frequencies m with q_n | m and
    q_n <= |m| <= log(q_{n+1}) / tau'^2; each frequency lands in the largest
    eligible n, so supports are pairwise disjoint.  Frequencies of g outside
    every block form the residual.
    """

    def __init__(self, blocks, residual, source, cf, depth=None):
        self.blocks = blocks  # dict n -> AnalyticCocycle
        self.residual = residual  # set of positive frequencies
        self.source = source
        self.cf = cf
        self.depth = depth if depth is not None else (max(blocks) if blocks else 0)

    def block(self, n):
        return self.blocks.get(n)

    def block_indices(self):
        return sorted(self.blocks)

    def tilde(self) -> AnalyticCocycle:
        """The reduced form: the union of all blocks."""
        coeffs = {}
        for b in self.blocks.values():
            for m, a in zip(b.freqs, b.amps):
                coeffs[int(m)] = a
        return AnalyticCocycle(coeffs, self.source.decay_rate, self.source.m_max)


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
    return ReducedCocycle(blocks, residual, g, cf, depth=depth)


# ---------------------------------------------------------------------------
# Birkhoff sums


def _orbit_angles(cf: ContinuedFraction, n: int, x: float) -> np.ndarray:
    """frac(x + j*alpha) for j = 0..n-1, double-double reduced."""
    hi, lo = cf.value_dd()
    j = np.arange(n, dtype=np.int64)
    base = frac01_int_mult(j, hi, lo)
    out = base + (x % 1.0)
    return out - np.floor(out)


def birkhoff_direct(g, cf: ContinuedFraction, n: int, x: float) -> float:
    """S_n(g)(x) by the direct n-term orbit sum; S_0 = 0."""
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    if n == 0:
        return 0.0
    return float(np.sum(g.eval(_orbit_angles(cf, n, x))))


def birkhoff_prefix(g, cf: ContinuedFraction, n: int, x: float) -> np.ndarray:
    """[S_0, S_1, ..., S_n](g)(x) by cumulative direct summation."""
    if n == 0:
        return np.zeros(1)
    vals = g.eval(_orbit_angles(cf, n, x))
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(vals, out=out[1:])
    return out


def _kernel_ratio(cf: ContinuedFraction, m: int, n: int):
    """(e_m(n alpha) - 1) / (e_m(alpha) - 1) from exact signed fractional parts."""
    v = float(cf.frac_signed(m))
    if abs(v) < _MIN_DENOM:
        raise PrecisionError(f"||{m}*alpha|| below double-precision floor")
    u = float(cf.frac_signed(m * n))
    su, sv = math.sin(math.pi * u), math.sin(math.pi * v)
    phase = complex(math.cos(math.pi * (u - v)), math.sin(math.pi * (u - v)))
    return (su / sv) * phase


def birkhoff_closed(g, cf: ContinuedFraction, n: int, x: float, orbit_shift: int = 0) -> float:
    """S_n(g)(x + orbit_shift * alpha) by the closed per-frequency form.

    Cost independent of n.  The shift enters through exact fractional parts,
    so S_m at an orbit point x + k*alpha keeps full accuracy even where the
    kernel ratio is huge (evaluating at the rounded float x + k*alpha would
    amplify its last-bit error by m * |S|).
    """
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    if n == 0:
        return 0.0
    total = 0.0
    for m, a in zip(g.freqs, g.amps):
        m = int(m)
        r = _kernel_ratio(cf, m, n)
        phase = (m * x) % 1.0
        if orbit_shift:
            phase += float(cf.frac01(m * orbit_shift))
        term = a * complex(math.cos(TWO_PI * phase), math.sin(TWO_PI * phase)) * r
        total += 2.0 * term.real
    return total


def birkhoff_closed_grid(g, cf: ContinuedFraction, n: int, xs: np.ndarray) -> np.ndarray:
    """Closed-form S_n(g) on an array of points."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros(xs.shape)
    if n == 0:
        return out
    for m, a in zip(g.freqs, g.amps):
        m = int(m)
        r = _kernel_ratio(cf, m, n)
        ang = TWO_PI * m * xs
        term = (a * r) * (np.cos(ang) + 1j * np.sin(ang))
        out += 2.0 * term.real
    return out


def birkhoff_sup_bound(g, cf: ContinuedFraction) -> float:
    """The a-priori bound 4 * sum |a_m| / ||m alpha||, valid for every n."""
    total = 0.0
    for m, a in zip(g.freqs, g.amps):
        total += 2 * abs(a) * 4.0 / float(cf.dist_to_integers(int(m)))
    return total


def coboundary_drift(g: AnalyticCocycle, g_red: ReducedCocycle, cf: ContinuedFraction, n_max: int) -> float:
    """sup_{k <= n_max} |S_k(g - g_tilde)(0)|; bounded iff the difference is a coboundary."""
    tilde = g_red.tilde()
    diff_coeffs = {int(m): a for m, a in zip(g.freqs, g.amps)}
    for m, a in zip(tilde.freqs, tilde.amps):
        diff_coeffs[int(m)] = diff_coeffs.get(int(m), 0) - a
    diff_coeffs = {m: a for m, a in diff_coeffs.items() if a != 0}
    if not diff_coeffs:
        return 0.0
    h = TrigPoly(list(diff_coeffs.keys()), list(diff_coeffs.values()))
    prefix = birkhoff_prefix(h, cf, n_max, 0.0)
    return float(np.max(np.abs(prefix)))


def denjoy_koksma_gap(h, q: int, x: float, cf: ContinuedFraction, mean: float) -> float:
    """|S_q(h)(x) - q * mean| for a convergent denominator q.

    h is any callable on arrays (a TrigPoly too) and mean its integral.
    """
    denominators = {cf.q(k) for k in range(0, cf.max_index() + 1)}
    if q not in denominators:
        raise InvalidInputError(f"q = {q} is not a convergent denominator of alpha")
    return abs(float(np.sum(h(_orbit_angles(cf, q, x)))) - q * mean)
