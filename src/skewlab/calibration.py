"""Frozen oracle-calibrated constants used by threshold comparisons.

None of these is asserted as a theoretical value; each was measured once by
the recorded recipe (seeded, deterministic) and frozen with a safety margin.
These tests assert each frozen value over its recipe:

- CHAR_PROGRESSION_RATIO: test_criterion_06_progression_stat_calibrated
  (tests/test_acceptance.py), the full recipe
- TWISTED_WINDOW_C: test_windowed_twisted_stat_calibrated_bound
  (tests/test_char_sums.py), at q = 997 and one character only

The constants of the sieve-weight checks, which only the tests run, are frozen
beside those checks in tests/lemmas.py.
"""

import numpy as np

# max over the seeded (q, r, chi) family of
#   progression stat / (sqrt(r q) d(q) log q);
# measured 0.1734 (rng seed 20260809, 30 moduli in [3,1000], 20 in
# (1000,10^4], 20 sampled characters beyond 10^3, r in {2,3,5,7}).
CHAR_PROGRESSION_RATIO = 0.25
CHAR_CALIBRATION_SEED = 20260809

# windowed twisted character stat against q^(1-delta/4+eps) H' + q H'^(3/4):
# measured 0.563 over q in {997, 5003, 10007} at H' = q^0.3, three
# non-principal characters each; frozen with margin.
TWISTED_WINDOW_C = 0.8


def char_progression_sample():
    """The frozen sampling plan behind CHAR_PROGRESSION_RATIO: (small moduli,
    large moduli, the generator that then samples characters of large moduli)."""
    rng = np.random.default_rng(CHAR_CALIBRATION_SEED)
    small_q = [int(q) for q in rng.choice(np.arange(3, 1001), size=30, replace=False)]
    big_q = [int(q) for q in rng.choice(np.arange(1001, 10001), size=20, replace=False)]
    return small_q, big_q, rng
