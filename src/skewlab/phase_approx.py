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

from skewlab.cocycle import BOUND_GRID, TrigPoly, _kernel_ratio, birkhoff_closed
from skewlab.dd import e
from skewlab.diophantine import AnalysisParams, ContinuedFraction
from skewlab.errors import IntegrityError, InvalidInputError, RangeError


@dataclass
class PhasePolynomial:
    """P_n(x, m) = sum_{s=1..degree} a_s(x) m^s with recorded coefficient bounds."""

    n: int
    degree: int
    coeff_fns: list  # TrigPoly per s = 1..degree
    bounds: list  # per s: (stated bound, sampled refined sup)

    def eval(self, x, m):
        """P_n at broadcast arrays of x and m: a float when both are scalars."""
        x = np.asarray(x, dtype=np.float64)
        mo = np.asarray(m, np.float64).astype(object)  # Python's pow: numpy's m**s differs, s >= 4
        total = np.zeros(x.shape)
        for s, a_s in enumerate(self.coeff_fns, start=1):
            total = total + a_s.eval(x) * np.asarray(mo**s, dtype=np.float64)
        return total if total.shape else float(total)


def build_phase_poly(gr, cf: ContinuedFraction, n: int, params: AnalysisParams) -> PhasePolynomial:
    """Construct P_n from the reduced block g_n and certify its coefficient bounds.

    A structurally valid scale with an empty block yields the zero polynomial;
    a scale outside the reduction depth is an error.
    """
    if n < 1 or n > gr.depth:
        raise InvalidInputError(f"scale n = {n} outside the reduction depth")
    d = max(1, math.floor(1.0 / params.delta))
    g_n = gr.blocks.get(n)
    if g_n is None:  # reduce keeps no empty block
        return PhasePolynomial(n=n, degree=d, coeff_fns=[TrigPoly([], [])] * d,
                               bounds=[(0.0, 0.0)] * d)
    qn = cf.q(n)
    qn1 = cf.q(n + 1)
    dist = float(cf.dist_to_integers(qn))

    sines, half = _kernel_ratio(cf, g_n.freqs, qn)  # one for every s: derivatives keep freqs
    ratio = sines * e(half)
    coeff_fns = [g_n]
    for s in range(2, d + 1):
        scale = dist ** (s - 1) / (float(qn) ** s * math.factorial(s))
        coeff_fns.append(TrigPoly(g_n.freqs.copy(), g_n.derivative(s - 1).amps * ratio * scale))

    bounds = []
    worst = None
    for s, a_s in enumerate(coeff_fns, start=1):
        if s == 1:
            stated = math.exp(-params.tau * qn)
        else:
            stated = 1.0 / (float(qn) * float(qn1) ** (s - 1))
        _, sup = a_s.sup_norm()
        bounds.append((stated, sup))
        if sup > stated * (1 + 1e-9) and (worst is None or sup / stated > worst[3]):
            i = int(np.argmax(np.abs(a_s.eval(np.arange(BOUND_GRID) / BOUND_GRID))))
            worst = (s, i / BOUND_GRID, sup, sup / stated)
    if worst is not None:
        raise IntegrityError(
            f"coefficient bound violated at (j, x) = ({worst[0]}, {worst[1]:.6f}): "
            f"sup = {worst[2]:.3e} exceeds the stated bound by factor {worst[3]:.3f}"
        )
    return PhasePolynomial(n=n, degree=d, coeff_fns=coeff_fns, bounds=bounds)


def polap_error(g, P: PhasePolynomial, x, m, w: int,
                cf: ContinuedFraction, params: AnalysisParams):
    """|S_m(g)(x) - S_{m mod w q_n}(g)(x) - P_n(x, m)| at broadcast arrays of x and m: a
    float when both are scalars.

    The approximation is only guaranteed for m <= q_{n+1}^{1-delta} and
    w <= log^3 q_n; outside those ranges a RangeError is raised.
    """
    n = P.n
    qn, qn1 = cf.q(n), cf.q(n + 1)
    m = np.asarray(m)
    if np.any(m > float(qn1) ** (1.0 - params.delta)):
        raise RangeError(f"m = {np.max(m)} beyond q_(n+1)^(1-delta)")
    if w < 1 or w > max(1.0, math.log(qn) ** 3):
        raise RangeError(f"w = {w} beyond log^3 q_n")
    s_m = birkhoff_closed(g, cf, m, x)
    s_red = birkhoff_closed(g, cf, m % (w * qn), x)
    return abs(s_m - s_red - P.eval(x, m))
