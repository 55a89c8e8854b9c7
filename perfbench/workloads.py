"""The four benchmark workloads.

Constructing a workload is its set-up: it imports the skewlab modules the
matching CLI command imports, builds the presets and the lazy tables a CLI
user pays for on every run, and draws the seeded scalar inputs.  ``prepare``
then builds the inputs that need the benchmark's own arithmetic, outside the
set-up clock.

``operations()`` lists one round of work as ``Op``s.  ``compute`` calls
skewlab and is the only timed part; ``keep`` reduces its output at once
(untimed) to what the check needs; ``check(kept, oracle)`` runs after the
last round, against expected values from ``oracle()``, which is computed
after the peak memory of the rounds has been read, so the benchmark's own
sieves never count towards ``peak_rss_mb``.

skewlab functions are always reached through their module at call time
(``self.sd.prime_weighted_average``), never through a saved reference, so
the traced run's wrappers see every call.
"""

import copy
import importlib
import math
from typing import Callable, NamedTuple

import numpy as np

import checks


class Fault(NamedTuple):
    """A known program fault that makes an operation fail, and how it must fail."""

    what: str
    check: Callable  # (kept output, oracle dict) -> None if the output fails as documented


class Op(NamedTuple):
    label: str
    compute: Callable
    check: Callable  # (kept output, oracle dict) -> None or a reason
    keep: Callable = None
    fault: Fault = None  # set on the one operation a known fault makes fail


def _modules(*names):
    return [importlib.import_module("skewlab." + n) for n in names]


def _dyadic(rng, bound: float, shift: int) -> int:
    """K with K / 2^shift in [bound/10, bound) and at most 53 significant bits."""
    K = int(rng.uniform(0.1, 1.0) * bound * 2.0**shift)
    drop = max(K.bit_length() - 53, 0)
    return (K >> drop) << drop


class Workload:
    name: str
    # Seconds of one round on the reference machine in a slow phase of its
    # host (perfbench/README.md).
    # A run of --seconds S makes max(1, round(S / ROUND_S)) rounds, so the
    # number of rounds depends on S only, never on how fast the host runs.
    ROUND_S: float

    def prepare(self):
        """Build the inputs that need the benchmark's own arithmetic."""

    def operations(self) -> list:
        raise NotImplementedError

    def oracle(self) -> dict:
        raise NotImplementedError


class CountingSource:
    """Passes skewlab's prime source through and counts the primes it hands out."""

    def __init__(self, source):
        self._source = source
        self.drawn = 0

    def __getattr__(self, name):
        return getattr(self._source, name)

    def primes_in(self, lo, hi):
        out = self._source.primes_in(lo, hi)
        self.drawn += len(out)
        return out


class FixedSource:
    """A prime source that offers only the given primes (a seeded subsample)."""

    def __init__(self, primes, limit):
        self.primes = primes
        self.limit = limit

    def primes_in(self, lo, hi):
        return self.primes[(self.primes >= lo) & (self.primes <= hi)]


# ---------------------------------------------------------------------------


class PrimeOrbits(Workload):
    """(1/N) sum_{p <= N} e(b x_p + c y_p) log p for the prime_pair preset."""

    name = "prime_orbits"
    ROUND_S = 9.0
    N = 5 * 10**7
    OBSERVABLES = ((0, 1), (1, 1), (0, 2))
    SUBSAMPLE = 1000

    def __init__(self, seed: int):
        self.presets, self.sd, self.primes = _modules("presets", "skew_dynamics", "primes")
        self.rng = np.random.default_rng(seed)
        self.x, self.y = float(self.rng.random()), float(self.rng.random())
        self.cf, self.g, _ = self.presets.prime_pair()
        self.T = self.sd.SkewProduct(self.cf, self.g)
        self.source = CountingSource(self.primes.default_source())

    def prepare(self):
        # 50 random windows of 2000 integers hold about 5800 primes; keep 1000
        lows = self.rng.integers(2, self.N - 2000, size=50)
        pool = np.unique(np.concatenate([checks.window_primes(int(a), int(a) + 2000)
                                         for a in lows]))
        self.subsample = np.sort(self.rng.choice(pool, self.SUBSAMPLE, replace=False))

    def _average(self, b, c, primes):
        return self.sd.prime_weighted_average(self.T, self.sd.Observable(b, c), self.N,
                                              self.x, self.y, primes=primes)

    def _full(self, b, c):
        self.source.drawn = 0
        avg, theta_ratio = self._average(b, c, self.source)
        return avg, theta_ratio, self.source.drawn

    def operations(self):
        ops = []
        for b, c in self.OBSERVABLES:
            ops.append(Op(f"average N={self.N} (b,c)=({b},{c})",
                          lambda b=b, c=c: self._full(b, c), self._check_full))
        sub = FixedSource(self.subsample, self.N)
        for b, c in self.OBSERVABLES:
            ops.append(Op(f"subsample average (b,c)=({b},{c})",
                          lambda b=b, c=c: self._average(b, c, sub)[0],
                          lambda avg, oracle, b=b, c=c: self._check_subsample(avg, oracle, b, c)))
        return ops

    @staticmethod
    def _check_subsample(avg, oracle, b, c):
        want, scale, tol = oracle["subsample", b, c]
        return checks.check_close(avg, want, scale, f"subsample average ({b},{c})", rel=tol)

    def _check_full(self, out, oracle):
        avg, theta_ratio, drawn = out
        return (checks.check_prime_count(drawn, oracle["pi"])
                or checks.check_close(theta_ratio, oracle["theta"] / self.N,
                                      oracle["theta"] / self.N, "theta(N)/N")
                or checks.check_orbit_bound(avg))

    def oracle(self):
        ps = checks.plain_sieve(self.N)
        out = {"pi": len(ps), "theta": checks.theta(ps)}
        del ps
        freqs = [int(m) for m in self.g.freqs]
        amps = [complex(a) for a in self.g.amps]
        for b, c in self.OBSERVABLES:
            want, scale = checks.exact_orbit_average(self.cf.value, freqs, amps,
                                                     self.subsample, self.N,
                                                     self.x, self.y, b, c)
            tol = checks.orbit_tolerance(self.cf.value, freqs, amps, self.x, b, c)
            out["subsample", b, c] = (want, scale, tol)
        return out


# ---------------------------------------------------------------------------


class PrimeWindows(Workload):
    """Short-window prime statistics at high offsets."""

    name = "prime_windows"
    ROUND_S = 5.5
    MS_N = (10**8, 10**9)
    MS_DEGREES = (0, 1, 2, 3)
    SHIFT = 64  # coefficients are K / 2^64
    PROGRESSIONS = ((3 * 10**6, 3 * 10**4, 9973, 31), (5 * 10**6, 5 * 10**4, 99991, 1009))
    EXACT_L1_R = 31
    WINDOWS = (10**7, 1999, 7)  # x = H, q, r
    ETA = 0.05
    # A negative gamma_3 makes frac01_poly_dd fold a value in (-1, 0), where
    # s - floor(s) rounds; Horner multiplies that error by (n - N)^2.  The
    # seeded coefficients keep gamma_2, gamma_3 > 0 so that this fault shows
    # only in the one fixed operation below, the same in every run.
    NEGATIVE_CUBIC = (10**8, 10**4, (6004799503160661 << 8, 1234567890123, -98765432101))
    # The gap is off by 8.5e-6, 4.3e-10 of its scale; twice that is still the
    # documented fault, anything further is a new one.
    NEGATIVE_CUBIC_FAULT_REL = 1e-9

    def __init__(self, seed: int):
        self.pps, self.cs, self.primes = _modules("poly_prime_sums", "char_sums", "primes")
        self.primes.default_source()
        rng = np.random.default_rng(seed)
        # inside the guaranteed regime at r = 1, tau = 1:
        # |gamma_1| <= e^-1 and |gamma_i| <= H^(1-i)
        self.numerators = {}
        for N in self.MS_N:
            H = self.H_of(N)
            K = [_dyadic(rng, bound, self.SHIFT) for bound in (0.35, 1.0 / H, 1.0 / H**2)]
            K[0] *= int(rng.choice((-1, 1)))
            self.numerators[N] = K
        self.Hp = math.floor(self.WINDOWS[1] ** 0.3)

    @staticmethod
    def H_of(N):
        return math.floor(N**0.55)

    def _coeffs(self, N, degree):
        return tuple(K / 2.0**self.SHIFT for K in self.numerators[N][:degree])

    def operations(self):
        ops = []
        for N in self.MS_N:
            H = self.H_of(N)
            for d in self.MS_DEGREES:
                g = self.pps.ShiftedPoly(N, self._coeffs(N, d))
                ops.append(Op(f"ms_gap N={N} degree {d}",
                              lambda N=N, H=H, g=g: self.pps.ms_gap(N, H, 1, 0, g, self.ETA)[0],
                              lambda gap, oracle, key=(N, d): checks.check_close(
                                  gap, *oracle["ms", key], what=f"ms_gap {key}")))
        N, H, K = self.NEGATIVE_CUBIC
        g = self.pps.ShiftedPoly(N, tuple(k / 2.0**self.SHIFT for k in K))
        fault = Fault("frac01_poly_dd loses ~(n-N)^2 ulp when a Horner step folds a "
                      "negative value (see CHANGES.md)",
                      lambda gap, oracle: checks.check_close(
                          gap, *oracle["ms", "negative cubic"], what="ms_gap negative cubic",
                          rel=self.NEGATIVE_CUBIC_FAULT_REL))
        ops.append(Op(f"ms_gap N={N} H={H} negative cubic",
                      lambda N=N, H=H, g=g: self.pps.ms_gap(N, H, 1, 0, g, self.ETA)[0],
                      lambda gap, oracle: checks.check_close(
                          gap, *oracle["ms", "negative cubic"], what="ms_gap negative cubic"),
                      fault=fault))
        for x, H, q, r in self.PROGRESSIONS:
            ops.append(Op(f"huxley_stat_progressions x={x} H={H} q={q} r={r}",
                          lambda x=x, H=H, q=q, r=r:
                              self.cs.huxley_stat_progressions(x, H, q, r)["value"],
                          lambda v, oracle, key=(x, H, q, r): self._check_l1(v, oracle, key)))
        x, q, r = self.WINDOWS
        ops.append(Op(f"huxley_stat_windows x=H={x} q={q} r={r} H'={self.Hp}",
                      lambda: self.cs.huxley_stat_windows(x, x, q, r, self.Hp)["value"],
                      lambda v, oracle: checks.check_between(v, *oracle["windows"],
                                                             what="huxley_stat_windows")))
        return ops

    def _check_l1(self, value, oracle, key):
        low, high = oracle["l1 bounds", key]
        err = checks.check_between(value, low, high, f"sliding L1 {key}")
        if err is None and ("l1", key) in oracle:
            want = oracle["l1", key]
            err = checks.check_close(value, want, want, f"sliding L1 {key}")
        return err

    def oracle(self):
        out = {}
        for N in self.MS_N:
            H = self.H_of(N)
            for d in self.MS_DEGREES:
                out["ms", (N, d)] = checks.exact_ms_gap(N, H, self.numerators[N][:d], self.SHIFT)
        N, H, K = self.NEGATIVE_CUBIC
        out["ms", "negative cubic"] = checks.exact_ms_gap(N, H, K, self.SHIFT)
        top = max(max(x + H for x, H, _, _ in self.PROGRESSIONS), self.WINDOWS[0])
        ps = checks.plain_sieve(top)
        for x, H, q, r in self.PROGRESSIONS:
            out["l1 bounds", (x, H, q, r)] = checks.sliding_l1_bounds(ps, x, H)
            if r == self.EXACT_L1_R:
                out["l1", (x, H, q, r)] = checks.class_cumsum_l1(ps, x, H, q, r)
        x, q, r = self.WINDOWS
        out["windows"] = checks.window_sup_bounds(ps, x, q, r, self.Hp)
        return out


# ---------------------------------------------------------------------------


class Characters(Workload):
    """Criterion 5 on a slice of moduli plus the character statistics."""

    name = "characters"
    ROUND_S = 6.5
    ORTHOGONALITY_Q = range(2, 301)
    ROWS_Q = range(1000, 1020)
    PROGRESSION_Q = (1021, 1024, 1155)  # a prime, a power of 2, 3*5*7*11
    PROGRESSION_R = (2, 3, 5, 7, 11, 13)
    TWISTED_Q = (1009, 2003)

    def __init__(self, seed: int):
        self.cs, self.primes = _modules("char_sums", "primes")
        self.primes.factorize(2)  # the trial-division prime table
        rng = np.random.default_rng(seed)
        self.gauss_x = {}
        for q in self.ROWS_Q:
            units = [a for a in range(1, q) if math.gcd(a, q) == 1]
            self.gauss_x[q] = int(rng.choice(units))
        self.progression_r = {}
        for q in self.PROGRESSION_Q:
            rs = [r for r in self.PROGRESSION_R if math.gcd(r, q) == 1]
            self.progression_r[q] = int(rng.choice(rs))

    def _orthogonality(self, q):
        tab = self.cs.build_characters(q)
        return tab.orthogonality_defect(), sum(1 for _ in tab)

    def _rows(self, q):
        tab = self.cs.build_characters(q)
        rows, gauss, n_chars, n_primitive = [], [], 0, 0
        for chi in tab:
            n_chars += 1
            if chi.is_principal():
                continue
            rows.append(chi.values())
            if chi.is_primitive():
                n_primitive += 1
                gauss.append(self.cs.gauss_sum(chi, self.gauss_x[q]))
        return rows, gauss, n_chars, n_primitive

    def _keep_rows(self, q, out):
        rows, gauss, n_chars, n_primitive = out
        rows = np.array(rows).reshape(len(rows), q)
        quadratic = None
        if checks.factor(q) == {q: 1}:
            quadratic = [row.real for row in rows if np.max(np.abs(row.imag)) < checks.ABS_CHAR]
        return checks.check_character_rows(q, rows, n_chars, n_primitive,
                                           [abs(g) for g in gauss], quadratic)

    def _progression(self, q):
        r = self.progression_r[q]
        tab = self.cs.build_characters(q)
        return [self.cs.progression_char_stat(q, r, chi) for chi in tab if not chi.is_principal()]

    def _twisted(self, q):
        tab = self.cs.build_characters(q)
        chi = next(c for c in tab if c.order() == 2)
        return self.cs.windowed_twisted_stat(q, math.floor(q**0.3), chi)["value"]

    def operations(self):
        ops = []
        for q in self.ORTHOGONALITY_Q:
            ops.append(Op(f"orthogonality q={q}", lambda q=q: self._orthogonality(q),
                          lambda out, oracle, q=q: self._check_orthogonality(q, *out)))
        for q in self.ROWS_Q:
            ops.append(Op(f"value rows, primitivity, Gauss sums q={q}",
                          lambda q=q: self._rows(q), lambda verdict, oracle: verdict,
                          keep=lambda out, q=q: self._keep_rows(q, out)))
        for q in self.PROGRESSION_Q:
            ops.append(Op(f"progression_char_stat q={q} r={self.progression_r[q]}",
                          lambda q=q: self._progression(q),
                          lambda stats, oracle, q=q: checks.check_progression_parseval(
                              stats, q, self.progression_r[q])))
        for q in self.TWISTED_Q:
            ops.append(Op(f"windowed_twisted_stat quadratic q={q}", lambda q=q: self._twisted(q),
                          lambda v, oracle, q=q: checks.check_between(
                              v, *oracle["twisted", q], what=f"windowed_twisted_stat q={q}")))
        return ops

    @staticmethod
    def _check_orthogonality(q, defect, n_chars):
        if not defect < checks.ABS_CHAR:
            return f"q={q}: orthogonality defect {defect:.3e}"
        if n_chars != checks.phi(q):
            return f"q={q}: {n_chars} characters, phi(q) = {checks.phi(q)}"
        return None

    def oracle(self):
        return {("twisted", q): checks.twisted_stat_bounds(q, math.floor(q**0.3))
                for q in self.TWISTED_Q}


# ---------------------------------------------------------------------------


class ExactConstructions(Workload):
    """Exact identity checks and the three-stage counterexample preset."""

    name = "exact_constructions"
    ROUND_S = 24.0  # stage 3 of the counterexample, which cannot be split, is 85% of it
    N_MAX = 3000
    VAUGHAN_Z = (2, 10)
    LINNIK_Z = 2
    HEATH_BROWN_K = (1, 2, 3)
    BUCHSTAB_WINDOWS = 100
    STAGES = 3
    PHI_EPS = 0.05

    def __init__(self, seed: int):
        self.ids, self.presets, self.primes = _modules("identities", "presets", "primes")
        self.primes.factorize(2)  # the trial-division prime table
        self.stages = self.presets.counterexample_stages(n_stages=self.STAGES)
        rng = np.random.default_rng(seed)
        # positions from the seed; length, w and z fixed per window index
        self.buchstab = []
        for i in range(self.BUCHSTAB_WINDOWS):
            lo = int(rng.integers(1, 10**6 - 10**4))
            w = 2 + (7 * i) % 60
            self.buchstab.append((lo, lo + 2000 + 60 * i, w, w + (13 * i) % 150))

    def _solve(self):
        self.solved = None  # a failed solve must not leave the last round's stages
        self.solved = copy.deepcopy(self.stages)
        self.solved.solve_all()

    def operations(self):
        ops = []
        for z in self.VAUGHAN_Z:
            for n in range(z + 1, self.N_MAX + 1):
                ops.append(Op(f"vaughan n={n} z={z}",
                              lambda n=n, z=z: self.ids.vaughan_decompose(n, z)[3].coords,
                              lambda got, oracle, n=n: checks.check_equal(
                                  got, oracle["lambda", n], f"Vaughan total at n={n}")))
        z = self.LINNIK_Z
        for n in range(2, self.N_MAX + 1):
            ops.append(Op(f"linnik n={n} z={z}", lambda n=n: self.ids.linnik_check(n, z),
                          lambda sides, oracle, n=n: checks.check_equal(
                              sides, (oracle["linnik", n],) * 2, f"Linnik sides at n={n}")))
        for k in self.HEATH_BROWN_K:
            zk = math.ceil(self.N_MAX ** (1.0 / k))
            ops.append(Op(f"heath-brown k={k} z={zk}",
                          lambda k=k, zk=zk: self.ids.heathbrown_coeff_check(k, zk, self.N_MAX),
                          lambda d, oracle, k=k: checks.check_equal(
                              d, 0.0, f"Heath-Brown defect k={k}")))
        for i, (lo, hi, w, zz) in enumerate(self.buchstab):
            ops.append(Op(f"buchstab [{lo},{hi}] w={w} z={zz}",
                          lambda lo=lo, hi=hi, w=w, zz=zz: self.ids.buchstab_check((lo, hi), w, zz),
                          lambda sides, oracle, i=i: checks.check_equal(
                              sides, (oracle["buchstab", i],) * 2, f"Buchstab window {i}")))
        ops.append(Op("counterexample solve_all", self._solve, lambda out, oracle: None))
        for n in range(1, self.STAGES + 1):
            ops.append(Op(f"verify_phi stage {n}",
                          lambda n=n: self.solved.verify_phi(n, eps=self.PHI_EPS)["passed"],
                          lambda ok, oracle, n=n: checks.check_phi(n, ok)))
            ops.append(Op(f"bump_average stage {n}", lambda n=n: self.solved.bump_average(n),
                          lambda b, oracle, n=n: checks.check_bump(n, b)))
        return ops

    def oracle(self):
        out = {}
        for n in range(2, self.N_MAX + 1):
            out["lambda", n] = checks.von_mangoldt_coords(n)
            out["linnik", n] = checks.linnik_rhs(n, self.LINNIK_Z)
        for i, (lo, hi, w, zz) in enumerate(self.buchstab):
            out["buchstab", i] = checks.sifted_count(lo, hi, zz)
        return out


WORKLOADS = {w.name: w for w in (PrimeOrbits, PrimeWindows, Characters, ExactConstructions)}
