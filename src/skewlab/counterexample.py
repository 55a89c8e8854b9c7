"""Piecewise-linear cocycles that break equidistribution along sparse sets.

The construction drives Birkhoff sums S_w(g)(0), for w in windows of an
almost-sparse set, to sit near 0 at even stages and near 1/2 at odd stages.
Each stage n contributes a sawtooth f_n supported on the intervals
[w p_k/q_k, (w p_k + 1)/q_k]: an up-ramp of slope L_{n,w} over width
1/q_{k+1}, a plateau, and a symmetric down-ramp.  The slopes at window points
solve the target equation f_n(w alpha) = target - r_{w,n} and are linearly
interpolated elsewhere.  All evaluations at orbit points w*alpha = w*P/Q use exact
integer residues, so stages stay consistent to ~1e-12 even at q ~ 1e11.
"""

import json
import math
from fractions import Fraction

import numpy as np

from skewlab.diophantine import ContinuedFraction
from skewlab.errors import (ConstructionError, IncompleteError, InvalidInputError,
                            PreconditionError, StateError)
from skewlab.primes import mobius_upto, simple_sieve

GOLDEN_LOG = math.log((1 + math.sqrt(5)) / 2)
BUMP_WIDTH = 0.25  # half-width of bump_average's triangle around y = 1/2
RIGIDITY_GRID = 4096  # sample points of rigidity_distribution_gap


class AlmostSparseSet:
    """Membership + bad-set oracles for the supported descriptors.

    squares: A = {m^2}, B_N empty (window gaps grow like sqrt even though the
    global minimal gap stays 3).
    primes: B_N removes both members of any prime pair at distance <= c(N),
    c(N) = ceil(loglog N), so the surviving gaps exceed c(N).
    custom: caller supplies elements_in(lo, hi) and bad_set(N).
    """

    def __init__(self, descriptor="squares", elements_in=None, bad_set=None):
        self.descriptor = descriptor
        if descriptor == "custom":
            if elements_in is None or bad_set is None:
                raise InvalidInputError("custom descriptor needs elements_in and bad_set")
            self._elements_in = elements_in
            self._bad_set = bad_set
        elif descriptor not in ("squares", "primes"):
            raise InvalidInputError(f"unknown descriptor {descriptor!r}")

    @staticmethod
    def gap_filter(N: int) -> int:
        """c(N) = ceil(loglog N), at least 1: the primes descriptor's pair distance."""
        return max(1, math.ceil(math.log(max(math.log(max(N, 3)), 1.0001))))

    def elements_in(self, lo: int, hi: int):
        """Sorted members of A in [lo, hi]."""
        if self.descriptor == "squares":
            m0 = math.isqrt(max(lo - 1, 0)) + 1
            m1 = math.isqrt(hi)
            return [m * m for m in range(m0, m1 + 1) if m * m >= lo]
        if self.descriptor == "primes":
            return [int(p) for p in simple_sieve(hi) if p >= lo]
        return sorted(self._elements_in(lo, hi))

    def bad_set(self, N: int):
        if self.descriptor == "squares":
            return set()
        if self.descriptor == "primes":
            c = self.gap_filter(N)
            ps = self.elements_in(1, N)
            bad = set()
            for a, b in zip(ps, ps[1:]):
                if b - a <= c:
                    bad.add(a)
                    bad.add(b)
            return bad
        return set(self._bad_set(N))

    def window(self, lo: int, hi: int):
        """Sorted members of A in [lo, hi] with B_hi removed."""
        bad = self.bad_set(hi)
        return [w for w in self.elements_in(lo, hi) if w not in bad]


def eps_n(A: AlmostSparseSet, n: int) -> Fraction:
    """Reciprocal minimal gap of A in [0, n] outside the bad set."""
    elems = A.window(0, n)
    if len(elems) < 2:
        raise InvalidInputError(f"A cap [0,{n}] minus bad set has < 2 elements")
    gap = min(b - a for a, b in zip(elems, elems[1:]))
    return Fraction(1, gap)


class RampFunction:
    """One stage's sawtooth f_n on the cells [j/q, (j + 1)/q).

    The slope of cell j is L_of_s(s) at the residue index s = j p^-1 mod q,
    interpolated between the window residues.
    """

    def __init__(self, q: int, q_next: int, p: int, window_s, L_window):
        self.q = q
        self.q_next = q_next
        self.p = p
        self.p_inv = pow(p, -1, q)
        self._ws = np.asarray(window_s, dtype=np.int64)
        self._Ls = np.asarray(L_window, dtype=np.float64)
        # right end of each bracket; the last one closes at the wrapped first point
        self._ws_next = np.append(self._ws[1:], self._ws[0] + q)
        self._Ls_next = np.append(self._Ls[1:], self._Ls[0])
        self._wrap_slope = (self._Ls[0] - self._Ls[-1]) / (q - self._ws[-1] + self._ws[0])

    def L_of_s(self, s):
        """Slope at residue index s (int or int64 array): bracket interpolation
        between window residues, linear across the wraparound."""
        s = np.asarray(s, dtype=np.int64) % self.q
        ws, Ls = self._ws, self._Ls
        w0, wt, Lt = ws[0], ws[-1], float(Ls[-1])
        i = np.maximum(np.searchsorted(ws, s, side="right") - 1, 0)
        inner = Ls[i] + (s - ws[i]) * (self._Ls_next[i] - Ls[i]) / (self._ws_next[i] - ws[i])
        inner = np.where(ws[i] == s, Ls[i], inner)
        wrap = Lt + (np.where(s >= wt, s, s + self.q) - wt) * self._wrap_slope
        out = np.where((w0 <= s) & (s <= wt), inner, wrap)
        return out if out.shape else float(out)

    def _shape(self, L, off):
        # up-ramp, plateau and down-ramp inside a cell, off from its left edge
        ramp = 1.0 / self.q_next
        width = 1.0 / self.q
        return np.where(off <= ramp, L * off,
                        np.where(off >= width - ramp, L * (width - off), L / self.q_next))

    def at_fractions(self, nums, Q: int):
        """f(num/Q) for each integer num in [0, Q): the cell j = floor(x q) and
        its residue in Python integers, the offset x - j/q one correctly rounded
        division, so it equals float() of the exact rational."""
        q, p_inv, Qq = self.q, self.p_inv, Q * self.q
        s = np.empty(len(nums), dtype=np.int64)
        off = np.empty(len(nums))
        for i, num in enumerate(nums):
            j, rem = divmod(num * q, Q)
            s[i] = j * p_inv % q
            off[i] = rem / Qq
        return self._shape(self.L_of_s(s), off)

    def eval_frac(self, x: Fraction) -> float:
        """Evaluation at a rational point (mod 1)."""
        return float(self.at_fractions([x.numerator % x.denominator], x.denominator)[0])

    def eval(self, x):
        """Vectorized float evaluation on [0,1)."""
        x = np.asarray(x, dtype=np.float64)
        xs = np.atleast_1d(x) % 1.0
        j = np.minimum((xs * self.q).astype(np.int64), self.q - 1)
        s = np.array([jj * self.p_inv % self.q for jj in j.tolist()], dtype=np.int64)
        out = self._shape(self.L_of_s(s), xs - j / self.q)
        return out.reshape(x.shape) if x.shape else float(out[0])

    __call__ = eval


class TentFunction:
    """The 1/q-periodic tent of height 1: h(j/q) = 0, h(j/q + 1/(2q)) = 1."""

    def __init__(self, q: int):
        self.q = q

    def at_fractions(self, nums, Q: int):
        """h(num/Q) for each integer num in [0, Q), exact up to the final rounding."""
        out = np.empty(len(nums))
        for i, num in enumerate(nums):
            rem = num * self.q % Q  # (x q mod 1) * Q
            out[i] = 2 * min(rem, Q - rem) / Q
        return out

    def eval_frac(self, x: Fraction) -> float:
        return float(self.at_fractions([x.numerator % x.denominator], x.denominator)[0])

    def eval(self, x):
        u = (np.asarray(x, dtype=np.float64) * self.q) % 1.0
        out = np.where(u <= 0.5, 2.0 * u, 2.0 * (1.0 - u))
        return out if out.shape else float(out)

    __call__ = eval

    @property
    def variation(self):
        return 2 * self.q

    @property
    def mean(self):
        return 0.5


def _next_even_stage_index(cf: ContinuedFraction, A: AlmostSparseSet, k_min: int,
                           mu_twist: bool):
    """Smallest even k >= k_min with alpha above p_k/q_k, q_{k+1} >= 2 q_k
    (so the two ramps fit inside one cell of width 1/q_k), and a nonempty
    window."""
    for k in range(k_min, cf.max_index()):
        if k % 2:
            continue
        if cf.convergent(k) >= cf.value:
            continue
        q = cf.q(k)
        if cf.q(k + 1) < 2 * q:
            continue
        window = (A.window(1, q // 2) if mu_twist else A.window((q + 1) // 2, q))
        if window:
            return k
    raise ConstructionError(f"no feasible stage index >= {k_min} within depth")


class StageConstruction:
    """Inductive solver for the stage slopes L_{n,w} and the truncated cocycle.

    Stage indices satisfy k_{n+1} > k_n^2 (advanced to the next even index so
    alpha stays above the convergent, which fixes the ramp branch at orbit
    points).  Standard targets are 2 - r (even stage number) and 3/2 - r
    (odd); the mu-twist variant targets (7 + mu(sqrt(w)))/4 - r on windows of
    squares below q/2 and skips the slope-growth invariants, which only bind
    for windows in [q/2, q].
    """

    def __init__(self, cf: ContinuedFraction, sparse_set: AlmostSparseSet,
                 n_stages: int = 3, stage_indices=None, include_h: bool = False,
                 mu_twist: bool = False, q_cap: float = 4e9):
        if mu_twist and sparse_set.descriptor != "squares":
            raise InvalidInputError("mu-twist variant requires the squares descriptor")
        self.cf = cf
        self.A = sparse_set
        self.include_h = include_h
        self.mu_twist = mu_twist
        self.q_cap = q_cap
        if stage_indices is None:
            stage_indices = []
            k = 2
            while len(stage_indices) < n_stages:
                k = _next_even_stage_index(cf, sparse_set, k, mu_twist)
                if cf.q(k) > q_cap:
                    break
                stage_indices.append(k)
                k = k * k + 1
        if not stage_indices:
            raise ConstructionError("no feasible stages under the q cap")
        for a, b in zip(stage_indices, stage_indices[1:]):
            if not b > a * a:
                raise InvalidInputError(f"stage indices must satisfy k_next > k^2: {a} -> {b}")
        self.stage_k = list(stage_indices)
        self.stage_l = [k + 1 for k in self.stage_k] if include_h else []
        self.n_stages = len(self.stage_k)
        self._stages = {}  # n -> dict(window, L_window, r_window, targets)
        self._phases = {}  # (n, solved stages) -> S_w(g)(0) mod 1 on the stage-n window

    # -- stage data -------------------------------------------------------

    def q_of(self, n):
        return self.cf.q(self.stage_k[n - 1])

    def window_of(self, n):
        q = self.q_of(n)
        if self.mu_twist:
            return self.A.window(1, q // 2)
        return self.A.window((q + 1) // 2, q)

    def solved(self):
        return len(self._stages)

    def f(self, n) -> RampFunction:
        if n > self.solved():
            raise StateError(f"stage {n} not solved yet")
        return self._stages[n]["f"]

    def h(self, n) -> TentFunction:
        if not self.include_h:
            raise StateError("construction built without the tent terms")
        return TentFunction(self.cf.q(self.stage_l[n - 1]))

    def solve_stage(self, n):
        """Define L_{n,.} from the targets; stages must be solved in order."""
        if n != self.solved() + 1:
            raise StateError(f"solve stages in order; next is {self.solved() + 1}")
        k = self.stage_k[n - 1]
        q = self.cf.q(k)
        q1 = self.cf.q(k + 1)
        if q1 < 2 * q:
            raise ConstructionError(
                f"stage {n}: ramps of width 1/{q1} overlap inside cells of width 1/{q}")
        window = self.window_of(n)
        if not window:
            raise ConstructionError(f"stage {n}: empty window at q = {q}")
        # r_{w,n} = sum_{m<n} f_m(w alpha) [+ h_m(w alpha)] mod 1
        r_window = self.birkhoff0_many(window, n - 1) % 1.0
        if self.mu_twist:
            roots = [math.isqrt(w) for w in window]
            targets = (7 + mobius_upto(roots[-1])[roots].astype(np.float64)) / 4.0 - r_window
        else:
            targets = (2.0 if n % 2 == 0 else 1.5) - r_window
        # w*alpha - w*p_k/q_k = w*(P q_k - p_k Q)/(Q q_k), inside the up-ramp of cell w p_k
        P, Q = self.cf.value.numerator, self.cf.value.denominator
        d = P * q - self.cf.p(k) * Q
        L_window = targets / np.array([w * d / (Q * q) for w in window])
        window_s = np.array([w % q for w in window], dtype=np.int64)
        if np.any(np.diff(window_s) <= 0):
            raise ConstructionError(f"stage {n}: window residues not strictly sorted")
        st = {
            "k": k, "q": q, "q_next": q1,
            "window": window, "window_s": window_s,
            "r_window": r_window.tolist(), "targets": targets.tolist(),
            "L_window": L_window.tolist(),
            "f": RampFunction(q, q1, self.cf.p(k), window_s, L_window),
        }
        self._stages[n] = st
        if not self.mu_twist:
            self.check_invariants(n)
        return st

    def solve_all(self):
        for n in range(self.solved() + 1, self.n_stages + 1):
            self.solve_stage(n)
        return self

    # -- evaluation --------------------------------------------------------

    def birkhoff0_many(self, ws, upto=None):
        """S_w(g)(0) = sum over solved stages of f_n(w*alpha) [+ h_n], per w in ws."""
        upto = self.solved() if upto is None else min(upto, self.solved())
        P, Q = self.cf.value.numerator, self.cf.value.denominator
        nums = [w * P % Q for w in ws]  # w*alpha mod 1 = num/Q
        total = np.zeros(len(ws))
        for m in range(1, upto + 1):
            total += self.f(m).at_fractions(nums, Q)
            if self.include_h:
                total += self.h(m).at_fractions(nums, Q)
        return total

    def _window_phases(self, n) -> np.ndarray:
        """S_w(g)(0) mod 1 over the stage-n window, read-only, once per solved-stage count."""
        key = (n, self.solved())
        if key not in self._phases:
            phases = self.birkhoff0_many(self._stages[n]["window"]) % 1.0
            phases.flags.writeable = False
            self._phases[key] = phases
        return self._phases[key]

    def birkhoff0(self, kk: int) -> float:
        return float(self.birkhoff0_many([kk])[0])

    def g_truncated(self, x, upto=None):
        """sum_{n <= upto} (f_n(x + alpha) - f_n(x)) [+ tent terms], float mode."""
        upto = self.solved() if upto is None else min(upto, self.solved())
        x = np.asarray(x, dtype=np.float64)
        alpha = float(self.cf.value)
        out = np.zeros(x.shape)
        for m in range(1, upto + 1):
            fm = self.f(m)
            out = out + fm.eval((x + alpha) % 1.0) - fm.eval(x)
            if self.include_h:
                hm = self.h(m)
                out = out + hm.eval((x + alpha) % 1.0) - hm.eval(x)
        return out if out.shape else float(out)

    def continuity_certificate(self):
        """Per solved stage: the two summands of the continuity criterion."""
        rows = []
        for n in range(1, self.solved() + 1):
            st = self._stages[n]
            q, q1 = st["q"], st["q_next"]
            dmax = float(self._slope_steps(n)[1].max())
            rows.append({"n": n, "sup_term": max(st["L_window"]) / (q * q1), "lip_term": dmax / q1})
        return rows

    def _slope_steps(self, n):
        """|L(s+1) - L(s)| at the window residues, their successors, 0 and q-1."""
        st = self._stages[n]
        q, ws = st["q"], st["window_s"]
        s = np.unique(np.concatenate([ws, (ws + 1) % q, [0, q - 1]]))
        s = s[s + 1 < q]
        l_of = st["f"].L_of_s
        return s, np.abs(l_of(s + 1) - l_of(s))

    def _log_q_lower(self, k: int) -> float:
        """Lower bound for log q_k, exact within depth, Fibonacci growth beyond."""
        if k <= self.cf.max_index():
            return float(self.cf.q(k).bit_length() - 1) * math.log(2)
        d = self.cf.max_index()
        return float(self.cf.q(d).bit_length() - 1) * math.log(2) + float(k - d) * GOLDEN_LOG

    def tail_bound(self, after_stage: int, w_max: int) -> float:
        """Certified bound for sum_{l > after_stage} f_l(w alpha), w <= w_max.

        Uses f_l(w alpha) <= 12 w / q_{k_l}, valid under the slope cap; future
        stage indices follow the k |-> k^2 + 1 (next even) schedule.  Terms
        drop super-geometrically, so the first few dominate; indices whose
        lower bound alone puts the term under e^-700 contribute 0.
        """
        log_w = math.log(max(w_max, 1))
        total = 0.0
        ks = list(self.stage_k[after_stage:])
        k_last = ks[-1] if ks else self.stage_k[-1]
        while len(ks) < 8 and k_last < 10**7:
            nxt = k_last * k_last + 1
            k_last = nxt + (nxt % 2)
            ks.append(k_last)
        for k_l in ks:
            log_term = math.log(12.0) + log_w - self._log_q_lower(k_l)
            total += math.exp(log_term) if log_term > -700 else 0.0
        # indices past 1e7 have q at least Fibonacci-of-1e7: identically zero here
        return total

    # -- verification ------------------------------------------------------

    def check_invariants(self, n):
        """Slope cap, slope increments, and interpolation consistency at stage n."""
        st = self._stages[n]
        q, q1 = st["q"], st["q_next"]
        try:
            eps = float(eps_n(self.A, q))
        except InvalidInputError:  # fewer than two elements: no gap
            eps = 1.0
        cap = 12.0 * q1
        inc_cap = max(12.0 * eps * q1, 24.0 * q1 / q)
        Ls = np.asarray(st["L_window"])
        escapes = ~((q1 / 12.0 - 1e-9 <= Ls) & (Ls <= cap * (1 + 1e-12)))
        if escapes.any():
            w, L = st["window"][np.argmax(escapes)], Ls[np.argmax(escapes)]
            raise ConstructionError(f"stage {n}: L at w={w} escapes [q'/12, 12q']: {L}")
        probes, steps = self._slope_steps(n)
        over = steps >= inc_cap * (1 + 1e-12)
        if over.any():
            s = probes[np.argmax(over)]
            raise ConstructionError(f"stage {n}: |L(s+1)-L(s)| at s={s} exceeds {inc_cap}")
        # endpoints reached exactly by the interpolation
        miss = np.abs(st["f"].L_of_s(st["window_s"]) - Ls) > 1e-9 * np.maximum(1.0, np.abs(Ls))
        if miss.any():
            s = st["window_s"][np.argmax(miss)]
            raise ConstructionError(f"stage {n}: interpolation misses window point {s}")
        return True

    def verify_phi(self, n, eps=0.05):
        """Check S_w(g)(0) mod 1 near the stage-n target on the stage window.

        Returns a report dict with the per-point deviations (one array, window
        order) and the certified tail; passes iff every deviation + tail < eps.
        """
        if n > self.solved():
            raise IncompleteError(f"stage {n} not solved")
        if self.mu_twist:
            raise PreconditionError("phi-lemma verification applies to the standard variant")
        st = self._stages[n]
        target = 0.0 if n % 2 == 0 else 0.5
        tail = self.tail_bound(self.solved(), st["q"])
        dist = np.abs(self._window_phases(n) - target)
        deviations = np.minimum(dist, 1 - dist)
        worst = float(deviations.max())
        return {
            "n": n, "target": target, "eps": eps, "tail_bound": tail,
            "worst_deviation": worst, "passed": worst + tail < eps,
            "deviations": deviations,
        }

    def bump_average(self, n) -> float:
        """Mean over the stage-n window of a triangular bump centered at y = 1/2,
        of half-width BUMP_WIDTH."""
        if n > self.solved():
            raise IncompleteError(f"stage {n} not solved")
        dist = np.abs(self._window_phases(n) - 0.5)
        d = np.minimum(dist, 1 - dist)
        return float(np.mean(np.maximum(0.0, 1.0 - d / BUMP_WIDTH)))

    def mu_twist_average(self, n=None) -> complex:
        """(1/N) sum_{m <= N} e(S_{m^2}(g)(0)) mu(m) at N = floor(sqrt(q/2))."""
        if not self.mu_twist:
            raise PreconditionError("built without the mu-twist targets")
        n = self.solved() if n is None else n
        N = math.isqrt(self.q_of(n) // 2)
        mu = mobius_upto(N)
        ms = [m for m in range(1, N + 1) if mu[m] != 0]
        total = 0.0 + 0.0j
        for m, s in zip(ms, self.birkhoff0_many([m * m for m in ms]).tolist()):
            total += int(mu[m]) * complex(math.cos(2 * math.pi * s), math.sin(2 * math.pi * s))
        return total / N

    def rigidity_distribution_gap(self, n):
        """Histogram distance of S_{K_n q_l}(g) mod 1 from its nearest constant.

        K_n = floor(q_{l_n + 1} / (2 q_{l_n})); reported diagnostic for the
        unique-ergodicity variant, not asserted against any constant.
        """
        if not self.include_h:
            raise PreconditionError("needs the tent variant")
        l = self.stage_l[n - 1]
        K = self.cf.q(l + 1) // (2 * self.cf.q(l))
        steps = K * self.cf.q(l)
        xs = np.arange(RIGIDITY_GRID) / RIGIDITY_GRID
        alpha_shift = float(self.cf.frac01(steps))
        # S_steps(g)(x) = sum_n [F_n(x + steps*alpha) - F_n(x)] with F_n = f_n (+ h_n)
        total = np.zeros(RIGIDITY_GRID)
        for m in range(1, self.solved() + 1):
            fm = self.f(m)
            total += fm.eval((xs + alpha_shift) % 1.0) - fm.eval(xs)
            hm = self.h(m)
            total += hm.eval((xs + alpha_shift) % 1.0) - hm.eval(xs)
        total %= 1.0
        best = min(float(np.mean(np.minimum(np.abs(total - c), 1 - np.abs(total - c))))
                   for c in np.arange(0, 1, 1 / 64))
        return {"n": n, "K": K, "mean_distance_to_nearest_constant": best}

    # -- dump / replay ------------------------------------------------------

    def to_json(self, eps=0.05) -> str:
        stages = []
        for n, st in sorted(self._stages.items()):
            rec = {
                "n": n,
                "k_n": st["k"],
                "l_n": self.stage_l[n - 1] if self.include_h else None,
                "window": st["window"],
                "targets": st["targets"],
                "L_window": st["L_window"],
            }
            if not self.mu_twist:
                rep = self.verify_phi(n, eps)
                rec["phi_report"] = {
                    "target": rep["target"],
                    "worst_deviation": rep["worst_deviation"],
                    "tail_bound": rep["tail_bound"],
                    "passed": rep["passed"],
                }
            stages.append(rec)
        payload = {
            "descriptor": self.A.descriptor,
            "quotients": self.cf.quotients,
            "stage_k": self.stage_k,
            "stage_l": self.stage_l,
            "include_h": self.include_h,
            "mu_twist": self.mu_twist,
            "stages": stages,
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "StageConstruction":
        """Rebuild and re-solve from a dump; the replay must match the dump."""
        payload = json.loads(text)
        cf = ContinuedFraction(payload["quotients"])
        obj = cls(cf, AlmostSparseSet(payload["descriptor"]),
                  stage_indices=payload["stage_k"],
                  include_h=payload["include_h"], mu_twist=payload["mu_twist"])
        obj.solve_all()
        for rec in payload["stages"]:
            got = obj._stages[rec["n"]]["L_window"]
            if not np.allclose(got, rec["L_window"], rtol=1e-12, atol=0):
                raise ConstructionError(f"replay mismatch at stage {rec['n']}")
        return obj
