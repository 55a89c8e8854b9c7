"""Polynomial phase approximation of Birkhoff sums at denominator scales.

At scale n the sum S_m(g)(x) - S_{m mod w q_n}(g)(x) is approximated by a
polynomial P_n(x, m) = sum_s a_s(x) m^s of degree <= floor(1/delta).  The
coefficient functions come from the closed Taylor formulas: a_1 = g_n and
a_s = ||q_n alpha||^{s-1} S_{q_n}(g_n^{(s-1)}) / (q_n^s s!) for s >= 2, each
a trigonometric polynomial (computed in the frequency domain via the closed
Birkhoff form, so evaluation cost does not depend on n).
"""

import math
from dataclasses import dataclass

import numpy as np

from skewlab.cocycle import TrigPoly, _kernel_ratio, birkhoff_closed
from skewlab.diophantine import AnalysisParams, ContinuedFraction
from skewlab.errors import IntegrityError, InvalidInputError, RangeError

BOUND_GRID = 1 << 12  # grid points of the sampled sup of each coefficient


def torus_dist(a: float) -> float:
    """|| a || = distance from a to the nearest integer."""
    f = a % 1.0
    return min(f, 1.0 - f)


def torus_metric(p1, p2) -> float:
    """d((x,y),(x',y')) = ||x - x'|| + ||y - y'||."""
    return torus_dist(p1[0] - p2[0]) + torus_dist(p1[1] - p2[1])


@dataclass
class PhasePolynomial:
    """P_n(x, m) = sum_{s=1..degree} a_s(x) m^s with recorded coefficient bounds."""

    n: int
    degree: int
    coeff_fns: list  # TrigPoly per s = 1..degree
    bounds: list  # per s: (stated bound, sampled refined sup)

    def eval(self, x, m) -> float:
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape)
        mf = float(m)
        for s, a_s in enumerate(self.coeff_fns, start=1):
            total = total + a_s.eval(x) * mf**s
        return total if total.shape else float(total)

    __call__ = eval


def build_phase_poly(gr, cf: ContinuedFraction, n: int, params: AnalysisParams) -> PhasePolynomial:
    """Construct P_n from the reduced block g_n and certify its coefficient bounds.

    A structurally valid scale with an empty block yields the zero polynomial;
    a scale outside the reduction depth is an error.
    """
    if n < 1 or n > getattr(gr, "depth", cf.max_index() - 1):
        raise InvalidInputError(f"scale n = {n} outside the reduction depth")
    d = max(1, math.floor(1.0 / params.delta))
    g_n = gr.block(n)
    if g_n is None or g_n.num_terms() == 0:
        return PhasePolynomial(n=n, degree=d, coeff_fns=[TrigPoly([], [])] * d,
                               bounds=[(0.0, 0.0)] * d)
    qn = cf.q(n)
    qn1 = cf.q(n + 1)
    dist = float(cf.dist_to_integers(qn))

    coeff_fns = [g_n]
    for s in range(2, d + 1):
        deriv = g_n.derivative(s - 1)
        scale = dist ** (s - 1) / (float(qn) ** s * math.factorial(s))
        amps = np.array([
            a * _kernel_ratio(cf, int(m), qn) * scale
            for m, a in zip(deriv.freqs, deriv.amps)
        ])
        coeff_fns.append(TrigPoly(deriv.freqs.copy(), amps))

    bounds = []
    worst = None
    xs = np.arange(BOUND_GRID) / BOUND_GRID
    for s, a_s in enumerate(coeff_fns, start=1):
        if s == 1:
            stated = math.exp(-params.tau * qn)
        else:
            stated = 1.0 / (float(qn) * float(qn1) ** (s - 1))
        vals = np.abs(a_s.eval(xs))
        i = int(np.argmax(vals))
        _, sup = a_s.sup_norm(grid=BOUND_GRID)
        bounds.append((stated, sup))
        if sup > stated * (1 + 1e-9):
            if worst is None or sup / stated > worst[3]:
                worst = (s, float(xs[i]), sup, sup / stated)
    if worst is not None:
        raise IntegrityError(
            f"coefficient bound violated at (j, x) = ({worst[0]}, {worst[1]:.6f}): "
            f"sup = {worst[2]:.3e} exceeds the stated bound by factor {worst[3]:.3f}"
        )
    return PhasePolynomial(n=n, degree=d, coeff_fns=coeff_fns, bounds=bounds)


def polap_error(g, gr, P: PhasePolynomial, x: float, m: int, w: int,
                cf: ContinuedFraction, params: AnalysisParams) -> float:
    """|S_m(g)(x) - S_{m mod w q_n}(g)(x) - P_n(x, m)|.

    The approximation is only guaranteed for m <= q_{n+1}^{1-delta} and
    w <= log^3 q_n; outside those ranges a RangeError is raised.
    """
    n = P.n
    qn, qn1 = cf.q(n), cf.q(n + 1)
    if m > float(qn1) ** (1.0 - params.delta):
        raise RangeError(f"m = {m} beyond q_(n+1)^(1-delta)")
    if w < 1 or w > max(1.0, math.log(qn) ** 3):
        raise RangeError(f"w = {w} beyond log^3 q_n")
    m_red = m % (w * qn)
    s_m = birkhoff_closed(g, cf, m, x)
    s_red = birkhoff_closed(g, cf, m_red, x)
    return abs(s_m - s_red - P.eval(x, m))


def orbit_return_error(g, cf: ContinuedFraction, n: int, z: int, m: int,
                       x: float, y: float, params: AnalysisParams) -> float:
    """Torus distance between the orbit at time m and at time m mod z*q_n."""
    from skewlab.diophantine import k_n as _k_n

    qn = cf.q(n)
    cap = float(qn) * min(float(_k_n(n, cf, params)), math.exp(min(2 * params.tau * qn, 700)))
    if m > cap:
        raise RangeError(f"m = {m} beyond q_n * min(K_n, e^(2 tau q_n)) = {cap:.3e}")
    m_red = m % (z * qn)
    dx = float(cf.frac01(m - m_red))
    dy = birkhoff_closed(g, cf, m, x) - birkhoff_closed(g, cf, m_red, x)
    return torus_dist(dx) + torus_dist(dy)
