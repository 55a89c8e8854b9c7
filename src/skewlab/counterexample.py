"""Piecewise-linear cocycles that break equidistribution along sparse sets.

The construction drives Birkhoff sums S_w(g)(0), for w in windows of an
almost-sparse set, to sit near 0 at even stages and near 1/2 at odd stages.
Each stage n contributes a sawtooth f_n supported on the intervals
[w p_k/q_k, (w p_k + 1)/q_k]: an up-ramp of slope L_{n,w} over width
1/q_{k+1}, a plateau, and a symmetric down-ramp.  The slopes at window points
solve the target equation f_n(w alpha) = target - r_{w,n} and are linearly
interpolated elsewhere.

Evaluations at orbit points w*alpha run on int64 arrays of w, PIECE points at a
time, so a stage's transient memory does not grow with its window.  For a
stage convergent p/q and rho = q alpha - p (exact), w alpha lies in the cell
j = (w p + floor(w rho)) mod q, at residue index s = (w + floor(w rho) p^-1)
mod q and offset frac(w rho)/q; the tent of q_l reads u = frac(w q_l alpha).
dd.floor_frac_dd gives floor and frac in double-double with an error bound,
and each value is rounded once; where the bound cannot certify that this is
float() of the exact rational (about one point in 10**5 here), the point is
recomputed in exact integers.  So every value equals the exact evaluation
(RampFunction.at_fractions, TentFunction.at_fractions), bit for bit.
"""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from skewlab.dd import MULMOD_LIMIT, dd_div_int, e, floor_frac_dd, mulmod, round_certified
from skewlab.diophantine import ContinuedFraction
from skewlab.errors import (ConstructionError, IncompleteError, InvalidInputError,
                            PreconditionError, RangeError, StateError)
from skewlab.primes import mobius_upto

GOLDEN_LOG = math.log((1 + math.sqrt(5)) / 2)
BUMP_WIDTH = 0.25  # half-width of bump_average's triangle around y = 1/2
Q_CAP = 4e11  # the automatic stage indices stop before a convergent denominator beyond this
# points per evaluated piece of a window: orbit cells, stage values, slopes and gaps are formed
# PIECE points at a time, so their transient memory stays fixed while the windows grow (100,406
# squares at stage 3).  Each value depends on its own w alone, so the pieces change no bit
PIECE = 1 << 14


class AlmostSparseSet:
    """The squares A = {m^2}, windowed, with an empty bad set B_N: window gaps grow like
    sqrt even though the global minimal gap stays 3."""

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Sorted members of A in [lo, hi] as an int64 array (empty where hi < lo)."""
        if hi >= 2**63:
            raise RangeError(f"squares up to {hi} leave int64")
        m = np.arange(math.isqrt(max(lo - 1, 0)) + 1, math.isqrt(max(hi, 0)) + 1, dtype=np.int64)
        m *= m
        return m


def _pieces(size: int):
    """Slices of [0, size), PIECE points each, the last one shorter."""
    for a in range(0, size, PIECE):
        yield slice(a, min(a + PIECE, size))


def _min_gap(a: np.ndarray) -> int:
    """min(a[i + 1] - a[i]) over an int64 array of at least two points, a piece at a time."""
    return min(int((a[sl.start + 1:sl.stop + 1] - a[sl]).min()) for sl in _pieces(a.size - 1))


def eps_n(A: AlmostSparseSet, n: int) -> Fraction:
    """Reciprocal minimal gap of A in [0, n] outside the bad set."""
    members = A.window(0, n)
    if members.size < 2:
        raise InvalidInputError(f"A cap [0,{n}] minus bad set has < 2 elements")
    return Fraction(1, _min_gap(members))


def _int64_indices(w) -> np.ndarray:
    """w as an int64 array, checked before any work: InvalidInputError unless it holds
    integers (an integer dtype, or Python ints), RangeError for a value outside int64."""
    arr = np.asarray(w)
    if arr.dtype == object:  # Python ints beyond int64 (or not ints at all)
        if not all(isinstance(v, (int, np.integer)) for v in arr.flat):
            raise InvalidInputError("indices w must be integers")
        if arr.size and not -(2**63) <= min(arr.flat) <= max(arr.flat) < 2**63:
            raise RangeError("indices w must lie in int64")
    elif arr.dtype.kind not in "iu" and arr.size:
        raise InvalidInputError(f"indices w must be integers, got dtype {arr.dtype}")
    elif arr.dtype.kind == "u" and arr.size and arr.max() >= 2**63:
        raise RangeError("indices w must lie in int64")
    return arr.astype(np.int64, copy=False)


def orbit_cells(w, alpha: Fraction, q: int, p: int):
    """Where the points w alpha fall among the cells [j/q, (j + 1)/q), for integers w
    within int64 (InvalidInputError, RangeError otherwise) and a convergent p/q of alpha.

    With rho = q alpha - p: k = floor(w rho), the residue index s = (w + k p^-1) mod q
    of the cell j = (w p + k) mod q, and the offset frac(w rho)/q of w alpha in it,
    equal to float() of the exact rational.  floor_frac_dd and one certified
    rounding give every element they can; the rest are recomputed in Python integers.
    q must lie in mulmod's range, as every stage's q <= Q_CAP does, else RangeError;
    p must be invertible mod q, else PreconditionError.
    Returns (k, s, off, the number of elements recomputed).
    """
    w = _int64_indices(w)
    if not 0 < q < MULMOD_LIMIT:
        raise RangeError(f"q = {q} outside (0, 2**43)")
    if math.gcd(p, q) != 1:
        raise PreconditionError(f"p = {p} is not invertible mod q = {q}")
    p_inv = pow(p, -1, q)
    rho = q * alpha - p
    k, f_hi, f_lo, err = floor_frac_dd(w, rho)
    off, ok = round_certified(*dd_div_int(f_hi, f_lo, err, q))
    s = (w % q + mulmod(k % q, p_inv, q)) % q
    exact = np.flatnonzero(~ok)
    for i in exact.tolist():
        kk, rem = divmod(int(w[i]) * rho.numerator, rho.denominator)
        k[i], s[i] = kk, (int(w[i]) + kk * p_inv) % q
        off[i] = rem / (rho.denominator * q)
    return k, s, off, exact.size


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

    def at_multiples(self, w, alpha: Fraction):
        """f(w alpha) for an int64 array w, alpha = P/Q with p/q its convergent: equal to
        at_fractions on w P mod Q.  Returns (values, the number of exact fallbacks)."""
        _, s, off, fallbacks = orbit_cells(w, alpha, self.q, self.p)
        return self._shape(self.L_of_s(s), off), fallbacks

    def eval_frac(self, x: Fraction) -> float:
        """Evaluation at a rational point (mod 1)."""
        return float(self.at_fractions([x.numerator % x.denominator], x.denominator)[0])


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

    def at_multiples(self, w, alpha: Fraction):
        """h(w alpha) for an int64 array w: equal to at_fractions on w P mod Q, alpha = P/Q.

        u = frac(w rho) with rho = q alpha mod 1; h = 2 min(u, 1 - u) is 1-Lipschitz
        in u, so the dd value is within 2 err.  Returns (values, exact fallbacks)."""
        _, f_hi, f_lo, err = floor_frac_dd(w, self.q * alpha % 1)
        up = (f_hi > 0.5) | ((f_hi == 0.5) & (f_lo > 0))
        out, ok = round_certified(2.0 * np.where(up, 1.0 - f_hi, f_hi),
                                  2.0 * np.where(up, -f_lo, f_lo), 2.0 * err)
        exact = np.flatnonzero(~ok)
        if exact.size:
            P, Q = alpha.numerator, alpha.denominator
            out[exact] = self.at_fractions([int(x) * P % Q for x in w[exact].tolist()], Q)
        return out, exact.size


def _stage_window(A: AlmostSparseSet, q: int, mu_twist: bool) -> np.ndarray:
    """The window of a stage at q: A in [1, q/2] for the mu-twist, else in [q/2, q]."""
    return A.window(1, q // 2) if mu_twist else A.window((q + 1) // 2, q)


def _circle_dist(a, b):
    """Distance on R/Z between a and b, elementwise."""
    d = np.abs(a - b)
    return np.minimum(d, 1 - d)


def _next_even_stage_index(cf: ContinuedFraction, A: AlmostSparseSet, k_min: int,
                           mu_twist: bool):
    """Smallest even k >= k_min with alpha above p_k/q_k, q_{k+1} >= 2 q_k
    (so the two ramps fit inside one cell of width 1/q_k), and a nonempty
    window."""
    for k in range(k_min + k_min % 2, cf.max_index(), 2):
        if (cf.convergent(k) < cf.value and cf.q(k + 1) >= 2 * cf.q(k)
                and _stage_window(A, cf.q(k), mu_twist).size):
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
                 n_stages: int = 3, include_h: bool = False, mu_twist: bool = False):
        if n_stages < 1:
            raise InvalidInputError(f"n_stages must be >= 1, got {n_stages}")
        self.cf = cf
        self.A = sparse_set
        self.include_h = include_h
        self.mu_twist = mu_twist
        self.stage_k = []
        k = 2
        while len(self.stage_k) < n_stages:
            k = _next_even_stage_index(cf, sparse_set, k, mu_twist)
            if cf.q(k) > Q_CAP:
                break
            self.stage_k.append(k)
            k = k * k + 1
        if not self.stage_k:
            raise ConstructionError("no feasible stages under the q cap")
        self.stage_l = [k + 1 for k in self.stage_k] if include_h else []
        self._tents = [TentFunction(cf.q(l)) for l in self.stage_l]
        self.n_stages = len(self.stage_k)
        # n -> dict(k, q, q_next, terms = (f_n,) or (f_n, h_n), and the arrays
        # window (int64), window_s (int64), r_window, targets and L_window (float64))
        self._stages = {}
        self._phases = {}  # (n, solved stages) -> S_w(g)(0) mod 1 on the stage-n window
        self.exact_fallbacks = Counter()  # stage n -> points of f_n, h_n recomputed exactly

    # -- stage data -------------------------------------------------------

    def q_of(self, n):
        return self.cf.q(self.stage_k[n - 1])

    def solved(self):
        return len(self._stages)

    def f(self, n) -> RampFunction:
        if n > self.solved():
            raise StateError(f"stage {n} not solved yet")
        return self._stages[n]["terms"][0]

    def h(self, n) -> TentFunction:
        if not self.include_h:
            raise StateError("construction built without the tent terms")
        return self._tents[n - 1]

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
        ws = _stage_window(self.A, q, self.mu_twist)
        if not ws.size:
            raise ConstructionError(f"stage {n}: empty window at q = {q}")
        # r_{w,n} = sum_{m<n} f_m(w alpha) [+ h_m(w alpha)] mod 1
        r_window = self.birkhoff0_many(ws, n - 1)
        r_window %= 1.0
        if self.mu_twist:
            mu = mobius_upto(math.isqrt(int(ws[-1])))
            targets = np.empty(ws.size)
            for sl in _pieces(ws.size):
                roots = np.floor(np.sqrt(ws[sl])).astype(np.int64)
                roots -= roots * roots > ws[sl]  # the float sqrt may be one off either way
                roots += (roots + 1) * (roots + 1) <= ws[sl]
                targets[sl] = (7 + mu[roots].astype(np.float64)) / 4.0 - r_window[sl]
        else:
            targets = (2.0 if n % 2 == 0 else 1.5) - r_window
        # w alpha - w p_k/q_k = w rho / q_k with 0 < w rho < 1: the up-ramp of cell w p_k
        L_window = np.empty(ws.size)
        for sl in _pieces(ws.size):
            floors, _, offsets, fallbacks = orbit_cells(ws[sl], self.cf.value, q, self.cf.p(k))
            self.exact_fallbacks[n] += fallbacks
            if floors.any():
                i = np.flatnonzero(floors)[0]
                raise ConstructionError(f"stage {n}: w = {ws[sl][i]} has floor(w rho) = "
                                        f"{floors[i]}, outside the cell of w p_k")
            L_window[sl] = targets[sl] / offsets
        window_s = ws % q
        if window_s.size > 1 and _min_gap(window_s) <= 0:
            raise ConstructionError(f"stage {n}: window residues not strictly sorted")
        f = RampFunction(q, q1, self.cf.p(k), window_s, L_window)
        st = {
            "k": k, "q": q, "q_next": q1,
            "window": ws, "window_s": window_s, "r_window": r_window, "targets": targets,
            "L_window": L_window, "terms": (f, *self._tents[n - 1:n]),
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
        """S_w(g)(0) = sum over solved stages of f_n(w*alpha) [+ h_n], per integer w in
        ws within int64 (InvalidInputError, RangeError otherwise)."""
        ws = _int64_indices(ws)
        upto = self.solved() if upto is None else min(upto, self.solved())
        total = np.zeros(ws.size)
        for sl in _pieces(ws.size):
            for m in range(1, upto + 1):
                for term in self._stages[m]["terms"]:
                    values, fallbacks = term.at_multiples(ws[sl], self.cf.value)
                    total[sl] += values
                    self.exact_fallbacks[m] += fallbacks
        return total

    def _window_phases(self, n) -> np.ndarray:
        """S_w(g)(0) mod 1 over the stage-n window, read-only, once per solved-stage count."""
        key = (n, self.solved())
        if key not in self._phases:
            phases = self.birkhoff0_many(self._stages[n]["window"])
            phases %= 1.0
            phases.flags.writeable = False
            self._phases[key] = phases
        return self._phases[key]

    def _slope_steps(self, n):
        """Yields (s, |L(s+1) - L(s)|) a piece of the window at a time, for s in 0, the window
        residues and their successors below q - 1: ascending, each s once."""
        st = self._stages[n]
        q, ws = st["q"], st["window_s"]
        l_of = st["terms"][0].L_of_s
        last = -1  # the last s yielded
        for sl in _pieces(ws.size):
            # ws is strictly increasing, so 0 (or the last s), ws[0], ws[0] + 1, ws[1], ... is
            # sorted and repeats a value only in adjacent entries, here or across the boundary
            s = np.empty(2 * (sl.stop - sl.start) + 1, dtype=np.int64)
            s[0], s[1::2], s[2::2] = max(last, 0), ws[sl], ws[sl] + 1
            s = s[s < q - 1]
            s = s[np.diff(s, prepend=last) != 0]
            if s.size:
                last = int(s[-1])
                yield s, np.abs(l_of(s + 1) - l_of(s))

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
        Ls, window_s = st["L_window"], st["window_s"]
        escapes = ~((q1 / 12.0 - 1e-9 <= Ls) & (Ls <= cap * (1 + 1e-12)))
        if escapes.any():
            w, L = st["window"][np.argmax(escapes)], Ls[np.argmax(escapes)]
            raise ConstructionError(f"stage {n}: L at w={w} escapes [q'/12, 12q']: {L}")
        for probes, steps in self._slope_steps(n):
            over = steps >= inc_cap * (1 + 1e-12)
            if over.any():
                s = probes[np.argmax(over)]
                raise ConstructionError(f"stage {n}: |L(s+1)-L(s)| at s={s} exceeds {inc_cap}")
        # endpoints reached exactly by the interpolation
        for sl in _pieces(Ls.size):
            miss = (np.abs(st["terms"][0].L_of_s(window_s[sl]) - Ls[sl])
                    > 1e-9 * np.maximum(1.0, np.abs(Ls[sl])))
            if miss.any():
                s = window_s[sl][np.argmax(miss)]
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
        deviations = _circle_dist(self._window_phases(n), target)
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
        d = _circle_dist(self._window_phases(n), 0.5)
        return float(np.mean(np.maximum(0.0, 1.0 - d / BUMP_WIDTH)))

    def mu_twist_average(self, n) -> complex:
        """(1/N) sum_{m <= N} e(S_{m^2}(g)(0)) mu(m) at N = floor(sqrt(q/2))."""
        if not self.mu_twist:
            raise PreconditionError("built without the mu-twist targets")
        N = math.isqrt(self.q_of(n) // 2)
        mu = mobius_upto(N)
        ms = np.flatnonzero(mu)
        return complex(np.sum(mu[ms] * e(self.birkhoff0_many(ms * ms)))) / N

    # -- dump ----------------------------------------------------------------

    def write_json(self, fh, eps=0.05):
        """Write the construction to the text file fh as indented JSON, encoded as it goes."""
        stages = []
        for n, st in sorted(self._stages.items()):
            rec = {
                "n": n,
                "k_n": st["k"],
                "l_n": self.stage_l[n - 1] if self.include_h else None,
                "window": st["window"].tolist(),
                "targets": st["targets"].tolist(),
                "L_window": st["L_window"].tolist(),
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
            "descriptor": "squares",
            "quotients": self.cf.quotients,
            "stage_k": self.stage_k,
            "stage_l": self.stage_l,
            "include_h": self.include_h,
            "mu_twist": self.mu_twist,
            "stages": stages,
        }
        json.dump(payload, fh, indent=1)
