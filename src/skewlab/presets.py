"""Frozen designated inputs for the desk-scale experiments.

Each preset was fixed after one calibration run and is treated as data: the
acceptance suite asserts its documented behavior (decay comparisons, loose
absolute bounds) against these exact objects.  The continued fractions carry
~80 extra unit quotients so that exact fractional parts stay certified for
every index the experiments touch.
"""

import math

from skewlab.cocycle import AnalyticCocycle, reduce as reduce_cocycle
from skewlab.counterexample import AlmostSparseSet, StageConstruction
from skewlab.diophantine import AnalysisParams, ContinuedFraction

# Liouville-type alpha for the phase-approximation experiments: denominator
# chain 500, 2501, 18007, 164564, 1992775 with growing jump ratios, then unit
# tail for precision.
PHASE_QUOTIENTS = [500, 5, 7, 9, 12] + [1] * 80
PHASE_TAU_PRIME = 5e-4
PHASE_DELTA = 0.2
PHASE_AMP_SCALE = 0.05  # amplitude c / q_n^1.3 per block frequency
PHASE_AMP_POWER = 1.3
PHASE_M_MAX = 200_000

# Katok-condition pair for the prime equidistribution experiments: block
# frequencies 60, 601, 7272, 218761 with near-maximal admissible amplitudes,
# so the fiber motion wraps the circle thousands of times by N = 1e5.
PRIME_QUOTIENTS = [60, 10, 12, 30, 2000] + [1] * 100
PRIME_TAU_PRIME = 5e-4
PRIME_AMP = 0.5
PRIME_M_MAX = 10**6
PRIME_BLOCK_SCALES = 4

# Counterexample rotation: stages k = (2, 6, 38) are feasible for the squares
# descriptor; quotients a_{k+1} = 2 at the stage indices keep the ramps inside
# their cells, and the jump after index 3 puts the stage-1 tail
# (~ 12 q_2 / q_6 = 0.032) under the 0.05 tolerance.
COUNTEREXAMPLE_QUOTIENTS = [3, 15, 2, 90, 1, 1, 2] + [1] * 31 + [2] + [1] * 78
COUNTEREXAMPLE_H_QUOTIENTS = [3, 15, 300, 180, 1, 1, 400] + [1] * 60


def phase_pair():
    """(cf, g, params, reduced) for the phase-approximation experiments."""
    cf = ContinuedFraction(PHASE_QUOTIENTS)
    params = AnalysisParams(tau_prime=PHASE_TAU_PRIME, delta=PHASE_DELTA)
    coeffs = {}
    for n in range(1, 5):
        q = cf.q(n)
        coeffs[q] = min(PHASE_AMP_SCALE / q**PHASE_AMP_POWER,
                        0.5 * math.exp(-PHASE_TAU_PRIME * q))
    g = AnalyticCocycle(coeffs, PHASE_TAU_PRIME, m_max=PHASE_M_MAX)
    red = reduce_cocycle(g, cf, params, 5)
    return cf, g, params, red


def prime_pair():
    """(cf, g, params) for the prime-average and reduced-residue experiments.

    The Katok ratios ||q_n alpha|| / |a_{q_n}| at the first three block
    scales decay (~3.4e-3, 3.7e-4, 3.5e-4): the designated subsequence
    serving as the empirical certificate that no multiple of g is a
    coboundary.
    """
    cf = ContinuedFraction(PRIME_QUOTIENTS)
    params = AnalysisParams(tau_prime=PRIME_TAU_PRIME, delta=0.2)
    coeffs = {cf.q(n): PRIME_AMP * math.exp(-PRIME_TAU_PRIME * cf.q(n))
              for n in range(1, PRIME_BLOCK_SCALES + 1)}
    g = AnalyticCocycle(coeffs, PRIME_TAU_PRIME, m_max=PRIME_M_MAX)
    return cf, g, params


def counterexample_stages(n_stages=3, include_h=False, mu_twist=False) -> StageConstruction:
    quotients = COUNTEREXAMPLE_H_QUOTIENTS if include_h else COUNTEREXAMPLE_QUOTIENTS
    cf = ContinuedFraction(quotients)
    return StageConstruction(cf, AlmostSparseSet(), n_stages=n_stages,
                             include_h=include_h, mu_twist=mu_twist)
