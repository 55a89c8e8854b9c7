"""skewlab: a numerical laboratory for torus skew products and prime statistics.

The package computes, at desk scale, the finite objects behind equidistribution
of skew-product orbits along primes: continued fractions and their derived
scales, analytic cocycles and their Birkhoff sums, polynomial phase
approximations, prime sieving and character-sum statistics, exact prime
decomposition identities, and an explicit piecewise-linear counterexample
construction.
"""

__version__ = "0.1.0"
