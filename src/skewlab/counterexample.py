"""Piecewise-linear cocycles that break equidistribution along sparse sets.

The construction drives Birkhoff sums S_w(g)(0), for w in windows of an
almost-sparse set, to sit near 0 at even stages and near 1/2 at odd stages.
Each stage n contributes a sawtooth f_n supported on the intervals
[w p_k/q_k, (w p_k + 1)/q_k]: an up-ramp of slope L_{n,w} over width
1/q_{k+1}, a plateau, and a symmetric down-ramp.  The slopes at window points
solve the target equation f_n(w alpha) = target - r_{w,n} and are linearly
interpolated elsewhere.  All evaluations at orbit points w*alpha use exact
rational offsets, so stages stay consistent to ~1e-12 even at q ~ 1e9.
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


class AlmostSparseSet:
    """Membership + bad-set oracles for the supported descriptors.

    squares: A = {m^2}, B_N empty (window gaps grow like sqrt even though the
    global minimal gap stays 3).
    primes: B_N removes both members of any prime pair at distance <= c(N),
    c(N) = ceil(loglog N), so the surviving gaps exceed c(N).
    custom: caller supplies elements_in(lo, hi) and bad_set(N).
    """

    def __init__(self, descriptor="squares", elements_in=None, bad_set=None, gap_filter=None):
        self.descriptor = descriptor
        if descriptor == "squares":
            pass
        elif descriptor == "primes":
            self.gap_filter = gap_filter or (lambda N: max(1, math.ceil(math.log(max(math.log(max(N, 3)), 1.0001)))))
        elif descriptor == "custom":
            if elements_in is None or bad_set is None:
                raise InvalidInputError("custom descriptor needs elements_in and bad_set")
            self._elements_in = elements_in
            self._bad_set = bad_set
        else:
            raise InvalidInputError(f"unknown descriptor {descriptor!r}")

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
    """One stage's sawtooth f_n, evaluable in float or exact-offset mode."""

    def __init__(self, q: int, q_next: int, p: int, L_of_s):
        self.q = q
        self.q_next = q_next
        self.p = p
        self.p_inv = pow(p, -1, q)
        self.L_of_s = L_of_s  # slope as a function of the residue index s

    def _value(self, w, offset):
        # offset inside [w p/q, (w p + 1)/q), measured from the left edge
        L = self.L_of_s(w)
        ramp = 1.0 / self.q_next
        width = 1.0 / self.q
        off = float(offset)
        if off <= ramp:
            return L * off
        if off >= width - ramp:
            return L * (width - off)
        return L / self.q_next

    def eval_frac(self, x: Fraction) -> float:
        """Exact-branch evaluation at a rational point (mod 1)."""
        x = x % 1
        j = int(x * self.q)  # floor since x*q rational
        w = (j * self.p_inv) % self.q
        return self._value(w, x - Fraction(j, self.q))

    def eval(self, x):
        """Vectorized float evaluation on [0,1)."""
        x = np.asarray(x, dtype=np.float64) % 1.0
        j = np.minimum((x * self.q).astype(np.int64), self.q - 1)
        w = (j * self.p_inv) % self.q
        off = x - j / self.q
        L = np.asarray([self.L_of_s(int(s)) for s in np.atleast_1d(w)])
        L = L.reshape(np.shape(w))
        ramp = 1.0 / self.q_next
        width = 1.0 / self.q
        up = off <= ramp
        down = off >= width - ramp
        out = np.where(up, L * off, np.where(down, L * (width - off), L / self.q_next))
        return out if out.shape else float(out)

    __call__ = eval


class TentFunction:
    """The 1/q-periodic tent of height 1: h(j/q) = 0, h(j/q + 1/(2q)) = 1."""

    def __init__(self, q: int):
        self.q = q

    def eval_frac(self, x: Fraction) -> float:
        u = (x * self.q) % 1
        return float(2 * u) if u <= Fraction(1, 2) else float(2 * (1 - u))

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
        self._mu = None

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

    def _mu_of(self, m):
        if self._mu is None or len(self._mu) <= m:
            self._mu = mobius_upto(max(2 * m, 1 << 12))
        return int(self._mu[m])

    def _offset(self, n, w) -> Fraction:
        """w*alpha - w*p_k/q_k, exact; lands in the up-ramp (0, 1/q_{k+1}]."""
        k = self.stage_k[n - 1]
        return w * (self.cf.value - self.cf.convergent(k))

    def f(self, n) -> RampFunction:
        if n > self.solved():
            raise StateError(f"stage {n} not solved yet")
        k = self.stage_k[n - 1]
        st = self._stages[n]
        return RampFunction(self.cf.q(k), self.cf.q(k + 1), self.cf.p(k), st["L_interp"])

    def h(self, n) -> TentFunction:
        if not self.include_h:
            raise StateError("construction built without the tent terms")
        return TentFunction(self.cf.q(self.stage_l[n - 1]))

    def _interp_builder(self, q, window_s, L_window):
        """Closure s -> L(n, s) by bracket interpolation with wraparound."""
        ws = np.asarray(window_s, dtype=np.int64)
        Ls = np.asarray(L_window, dtype=np.float64)
        w0, wt = int(ws[0]), int(ws[-1])
        L0, Lt = float(Ls[0]), float(Ls[-1])
        wrap_len = q - wt + w0
        wrap_slope = (L0 - Lt) / wrap_len if wrap_len else 0.0

        def L_of_s(s):
            s = int(s) % q
            if w0 <= s <= wt:
                i = int(np.searchsorted(ws, s, side="right")) - 1
                if ws[i] == s:
                    return float(Ls[i])
                gap = ws[i + 1] - ws[i]
                return float(Ls[i] + (s - ws[i]) * (Ls[i + 1] - Ls[i]) / gap)
            s_ext = s if s >= wt else s + q
            return Lt + (s_ext - wt) * wrap_slope

        return L_of_s

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
        r_window = [self._r_value(n, w) for w in window]
        targets = []
        for w, r in zip(window, r_window):
            if self.mu_twist:
                t = (7 + self._mu_of(math.isqrt(w))) / 4.0 - r
            else:
                t = (2.0 if n % 2 == 0 else 1.5) - r
            targets.append(t)
        L_window = [t / float(self._offset(n, w)) for t, w in zip(targets, window)]
        window_s = [w % q for w in window]
        if window_s != sorted(set(window_s)):
            raise ConstructionError(f"stage {n}: window residues not strictly sorted")
        st = {
            "k": k, "q": q, "q_next": q1,
            "window": window, "window_s": window_s,
            "r_window": r_window, "targets": targets, "L_window": L_window,
            "L_interp": self._interp_builder(q, window_s, L_window),
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

    def _r_value(self, n, w) -> float:
        """r_{w,n} = sum_{m<n} f_m(w alpha) [+ h_m(w alpha)] mod 1."""
        total = 0.0
        wa = (w * self.cf.value) % 1
        for m in range(1, n):
            total += self.f(m).eval_frac(wa)
            if self.include_h:
                total += self.h(m).eval_frac(wa)
        return total % 1.0

    def birkhoff0(self, kk: int, upto=None) -> float:
        """S_kk(g)(0) = sum over solved stages of f_n(kk*alpha) [+ h_n]."""
        upto = self.solved() if upto is None else min(upto, self.solved())
        ka = (kk * self.cf.value) % 1
        total = 0.0
        for m in range(1, upto + 1):
            total += self.f(m).eval_frac(ka)
            if self.include_h:
                total += self.h(m).eval_frac(ka)
        return total

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
            Lmax = max(st["L_window"])
            l_of = st["L_interp"]
            samples = list(st["window_s"])
            samples += [(s + 1) % q for s in samples] + [0, q - 1]
            dmax = max(abs(l_of(s + 1) - l_of(s)) for s in set(samples) if s + 1 < q)
            rows.append({"n": n, "sup_term": Lmax / (q * q1), "lip_term": dmax / q1})
        return rows

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
        eps = float(eps_n(self.A, q)) if len(self.A.window(0, q)) >= 2 else 1.0
        cap = 12.0 * q1
        inc_cap = max(12.0 * eps * q1, 24.0 * q1 / q)
        for w, L in zip(st["window"], st["L_window"]):
            if not (q1 / 12.0 - 1e-9 <= L <= cap * (1 + 1e-12)):
                raise ConstructionError(f"stage {n}: L at w={w} escapes [q'/12, 12q']: {L}")
        l_of = st["L_interp"]
        probes = set(st["window_s"])
        probes |= {(s + 1) % q for s in probes} | {0, q - 1, (st["window_s"][-1] + 1) % q}
        for s in probes:
            if s + 1 < q and abs(l_of(s + 1) - l_of(s)) >= inc_cap * (1 + 1e-12):
                raise ConstructionError(
                    f"stage {n}: |L(s+1)-L(s)| at s={s} exceeds {inc_cap}")
        # endpoints reached exactly by the interpolation
        for s, L in zip(st["window_s"], st["L_window"]):
            if abs(l_of(s) - L) > 1e-9 * max(1.0, abs(L)):
                raise ConstructionError(f"stage {n}: interpolation misses window point {s}")
        return True

    def verify_phi(self, n, eps=0.05):
        """Check S_w(g)(0) mod 1 near the stage-n target on the stage window.

        Returns a report dict with per-point deviations and the certified
        tail; passes iff every deviation plus the tail stays below eps.
        """
        if n > self.solved():
            raise IncompleteError(f"stage {n} not solved")
        if self.mu_twist:
            raise PreconditionError("phi-lemma verification applies to the standard variant")
        st = self._stages[n]
        target = 0.0 if n % 2 == 0 else 0.5
        tail = self.tail_bound(self.solved(), st["q"])
        rows = []
        for w in st["window"]:
            s = self.birkhoff0(w) % 1.0
            dev = min(abs(s - target), 1 - abs(s - target))
            rows.append({"w": w, "value": s, "deviation": dev})
        worst = max(r["deviation"] for r in rows)
        return {
            "n": n, "target": target, "eps": eps, "tail_bound": tail,
            "worst_deviation": worst, "passed": worst + tail < eps, "points": rows,
        }

    def bump_average(self, n, width=0.25) -> float:
        """Mean over the stage-n window of a triangular bump centered at y = 1/2."""
        if n > self.solved():
            raise IncompleteError(f"stage {n} not solved")
        vals = []
        for w in self._stages[n]["window"]:
            y = self.birkhoff0(w) % 1.0
            d = min(abs(y - 0.5), 1 - abs(y - 0.5))
            vals.append(max(0.0, 1.0 - d / width))
        return float(np.mean(vals))

    def mu_twist_average(self, n=None) -> complex:
        """(1/N) sum_{m <= N} e(S_{m^2}(g)(0)) mu(m) at N = floor(sqrt(q/2))."""
        if not self.mu_twist:
            raise PreconditionError("built without the mu-twist targets")
        n = self.solved() if n is None else n
        N = math.isqrt(self.q_of(n) // 2)
        mu = mobius_upto(N)
        total = 0.0 + 0.0j
        for m in range(1, N + 1):
            if mu[m] == 0:
                continue
            s = self.birkhoff0(m * m)
            total += int(mu[m]) * complex(math.cos(2 * math.pi * s), math.sin(2 * math.pi * s))
        return total / N

    def rigidity_distribution_gap(self, n, grid=4096):
        """Histogram distance of S_{K_n q_l}(g) mod 1 from its nearest constant.

        K_n = floor(q_{l_n + 1} / (2 q_{l_n})); reported diagnostic for the
        unique-ergodicity variant, not asserted against any constant.
        """
        if not self.include_h:
            raise PreconditionError("needs the tent variant")
        l = self.stage_l[n - 1]
        K = self.cf.q(l + 1) // (2 * self.cf.q(l))
        steps = K * self.cf.q(l)
        xs = np.arange(grid) / grid
        alpha_shift = float(self.cf.frac01(steps))
        # S_steps(g)(x) = sum_n [F_n(x + steps*alpha) - F_n(x)] with F_n = f_n (+ h_n)
        total = np.zeros(grid)
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
