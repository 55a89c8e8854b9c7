"""Dirichlet character groups and the windowed/progression prime statistics.

Characters are built by CRT over prime-power factors with discrete-log tables
on the cyclic parts; values live as exact roots of unity (group exponent L,
integer exponents) and materialize to complex rows on demand, so a table for
q up to 1e6 costs O(q * omega(q)) memory rather than phi(q) * q.  A value row
is a lookup: each table builds the root table zeta_L^0, ..., zeta_L^(L-1)
followed by 0 once, and indexes it with the exponent row, whose -1 on non-units
reads the trailing 0.

The sup-over-beta window statistics (windowed_twisted_stat and
huxley_stat_windows) evaluate every window start z < q at once: each beta of
the grid is one whole-array pass over a block of the (z, t) matrix of window
positions, and the golden-section refine runs on all windows in lockstep.

The sliding-window prime statistics treat each residue-class count as a step
function of the window start y that changes only where a prime enters or
leaves the window, so a full pass over [0, x) costs O(pi(x) log pi(x)) array
work, independent of x.
"""

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from skewlab.errors import (IntegrityError, InvalidInputError, PreconditionError, RangeError,
                            ResourceError)
from skewlab.primes import default_source, euler_phi, factorize
from skewlab.skew_dynamics import e

TWO_PI = 2.0 * math.pi
# elements of one (z, t) block of window positions in the beta-sup statistics
WINDOW_BLOCK_ELEMS = 1 << 16


# ---------------------------------------------------------------------------
# character group construction


def _primitive_root_prime(p: int) -> int:
    phi = p - 1
    fac = [f for f, _ in factorize(phi)]
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in fac):
            return g
    raise IntegrityError(f"no primitive root mod {p}")


def _primitive_root_prime_power(p: int, e: int) -> int:
    g = _primitive_root_prime(p)
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _dlog_table(modulus: int, gen: int, order: int) -> np.ndarray:
    tbl = np.full(modulus, -1, dtype=np.int64)
    v = 1
    for j in range(order):
        tbl[v] = j
        v = v * gen % modulus
    return tbl


class _Component:
    """One cyclic factor of (Z/q)*: modulus p^e, order, dlog table."""

    def __init__(self, modulus, order, dlog):
        self.modulus = modulus
        self.order = order
        self.dlog = dlog


def _components_of(q: int):
    comps = []
    cond_info = []  # (p, e, kind) per component, kind in {odd, four, minus_one, five}
    for p, ex in factorize(q):
        pe = p**ex
        if p == 2:
            if ex == 1:
                continue  # (Z/2)* trivial
            if ex == 2:
                comps.append(_Component(4, 2, _dlog_table(4, 3, 2)))
                cond_info.append((2, 2, "four"))
            else:
                minus = np.full(pe, -1, dtype=np.int64)
                five = np.full(pe, -1, dtype=np.int64)
                v = 1
                for kb in range(pe // 4):
                    minus[v] = 0
                    five[v] = kb
                    minus[pe - v] = 1
                    five[pe - v] = kb
                    v = v * 5 % pe
                comps.append(_Component(pe, 2, minus))
                cond_info.append((2, ex, "minus_one"))
                comps.append(_Component(pe, pe // 4, five))
                cond_info.append((2, ex, "five"))
        else:
            order = pe // p * (p - 1)
            g = _primitive_root_prime_power(p, ex)
            comps.append(_Component(pe, order, _dlog_table(pe, g, order)))
            cond_info.append((p, ex, "odd"))
    return comps, cond_info


class Character:
    """One Dirichlet character mod q, stored as exponents of zeta_L."""

    def __init__(self, table, ks):
        self.table = table
        self.ks = tuple(int(k) for k in ks)

    @property
    def q(self):
        return self.table.q

    def is_principal(self) -> bool:
        return all(k == 0 for k in self.ks)

    def order(self) -> int:
        o = 1
        for k, comp in zip(self.ks, self.table.components):
            o = math.lcm(o, comp.order // math.gcd(comp.order, k))
        return o

    def conductor(self) -> int:
        if self.q == 1:
            return 1
        cond = 1
        two_part = 1
        for k, comp, (p, ex, kind) in zip(self.ks, self.table.components, self.table._cond_info):
            d = comp.order // math.gcd(comp.order, k)  # order of this component character
            if d == 1:
                continue
            if kind == "odd":
                vp = 0
                dd = d
                while dd % p == 0:
                    dd //= p
                    vp += 1
                cond *= p ** (1 + vp)
            elif kind == "four":
                two_part = max(two_part, 4)
            elif kind == "minus_one":
                two_part = max(two_part, 4)
            elif kind == "five":
                two_part = max(two_part, 4 * d)
        return cond * two_part

    def is_primitive(self) -> bool:
        return self.conductor() == self.q

    def exponents(self) -> np.ndarray:
        """Exponent row over [0, q): chi(a) = zeta_L^row[a], -1 marks non-units."""
        return self.table._exponent_row(self.ks)

    def values(self) -> np.ndarray:
        """Complex value row over [0, q), 0 on non-units."""
        return self.table._roots[self.exponents()]


class CharacterTable:
    """The full group of Dirichlet characters mod q."""

    MAX_Q = 10**6

    def __init__(self, q: int):
        if q < 1:
            raise InvalidInputError("modulus must be >= 1")
        if q > self.MAX_Q:
            raise ResourceError(f"character table capped at q <= {self.MAX_Q}")
        self.q = q
        self.components, self._cond_info = _components_of(q)
        self.exponent = 1
        for comp in self.components:
            self.exponent = math.lcm(self.exponent, comp.order)
        self.phi = euler_phi(q)
        # per-component dlog over [0, q); units read off gcd so that factors
        # with trivial unit group (2^1) still constrain membership
        a = np.arange(q, dtype=np.int64) if q > 1 else np.zeros(1, dtype=np.int64)
        self._dlogs = [np.maximum(comp.dlog[a % comp.modulus], 0) for comp in self.components]
        self._non_units = np.flatnonzero(np.gcd(a, q) != 1) if q > 1 else np.zeros(0, np.int64)

    @functools.cached_property
    def _roots(self) -> np.ndarray:
        """zeta_L^j for j < L, then 0 at index L (read by the exponent -1)."""
        L = self.exponent
        return np.append(np.exp(2j * np.pi * (np.arange(L, dtype=np.float64) / L)), 0.0)

    def _exponent_row(self, ks) -> np.ndarray:
        # each term k (L / order) dlog is below L * q, so the int64 sum over the
        # r <= 8 components stays below r L q <= 8e12 for q <= MAX_Q
        L = self.exponent
        row = np.zeros(self.q if self.q > 1 else 1, dtype=np.int64)
        for k, comp, D in zip(ks, self.components, self._dlogs):
            if k:
                row += (k * (L // comp.order)) * D
        row %= L
        row[self._non_units] = -1
        return row

    def __len__(self):
        return self.phi

    def __iter__(self):
        ranges = [range(comp.order) for comp in self.components]
        if not ranges:
            yield Character(self, ())
            return
        import itertools

        for ks in itertools.product(*ranges):
            yield Character(self, ks)

    def principal(self) -> Character:
        return Character(self, tuple(0 for _ in self.components))

    def orthogonality_defect(self) -> float:
        """max over character pairs of |sum_a chi(a) conj(psi(a)) - phi(q) delta|."""
        rows = np.stack([chi.values() for chi in self])
        gram = rows @ rows.conj().T
        target = self.phi * np.eye(len(rows))
        return float(np.max(np.abs(gram - target)))


def build_characters(q: int) -> CharacterTable:
    return CharacterTable(q)


# ---------------------------------------------------------------------------
# character statistics


@functools.lru_cache(maxsize=1)
def _additive_twist(q: int, x: int) -> np.ndarray:
    """e(b x / q) for b < q; one entry, since callers walk every character of one q."""
    b = np.arange(q)
    tw = e(b * x / q)
    tw.flags.writeable = False
    return tw


def gauss_sum(chi: Character, x: int) -> complex:
    """G_chi(x) = sum_b chi(b) e(b x / e) for a primitive character mod e.

    The modulus of a primitive Gauss sum never exceeds sqrt(e); this is
    asserted on every call.
    """
    if not chi.is_primitive():
        raise PreconditionError("gauss_sum requires a primitive character")
    ee = chi.q
    val = complex(np.sum(chi.values() * _additive_twist(ee, x % ee)))
    if abs(val) > math.sqrt(ee) + 1e-9:
        raise IntegrityError(f"|G| = {abs(val)} exceeds sqrt({ee})")
    return val


def progression_char_stat(q: int, r: int, chi: Character) -> float:
    """sum_{v=1..r} |sum_{a < q, a = v mod r} chi(a)|."""
    if r < 1 or math.gcd(r, q) != 1:
        raise PreconditionError(f"need r >= 1 and (r, q) = 1, got ({r}, {q})")
    if chi.is_principal():
        raise PreconditionError("statistic defined for non-principal characters")
    vals = chi.values()
    a = np.arange(q, dtype=np.int64)
    keys = (a % r).astype(np.int64)
    sums_re = np.bincount(keys, weights=vals.real, minlength=r)
    sums_im = np.bincount(keys, weights=vals.imag, minlength=r)
    return float(np.sum(np.hypot(sums_re, sums_im)))


@dataclass(frozen=True)
class BetaPolicy:
    """Documented sup-over-beta approximation: oversampled grid + golden refine.

    name "zero" evaluates beta = 0 only, the oracle mode of the tests.
    """

    name: str = "grid+golden"
    oversample: ClassVar[int] = 4
    golden_iters: ClassVar[int] = 20

    def grid(self, Hp: int) -> np.ndarray:
        if self.name == "zero":
            return np.zeros(1)
        n = max(1, self.oversample * Hp)
        return np.arange(n) / n


def _window_blocks(q: int, Hp: int, width: int = 1):
    """Window starts z < q in blocks of at most WINDOW_BLOCK_ELEMS elements.

    A window takes max(Hp + 1, width) elements: its positions, or the width
    of a per-window array its caller builds (r bins in huxley_stat_windows).

    Yields (u, idx, inside): the positions u that the block's windows touch,
    the (z, t) matrix of indices into u of the positions z + t, t <= Hp
    (clipped to the last of u), and the mask of the positions z + t < q.
    """
    t = np.arange(Hp + 1)
    size = max(1, WINDOW_BLOCK_ELEMS // max(Hp + 1, width))
    for z0 in range(0, q, size):
        z1 = min(z0 + size, q)
        u = np.arange(z0, min(z1 + Hp, q))
        pos = np.arange(z1 - z0)[:, None] + t
        yield u, np.minimum(pos, len(u) - 1), pos < len(u)


def _windows_sup_beta(vals: np.ndarray, Hp: int, policy: BetaPolicy) -> np.ndarray:
    """sup_beta |sum_{a in [z, z+Hp], a < q} vals[a] e(a beta)| for every z < q.

    Each window takes the grid argmax, then the policy's golden-section refine
    with the same comparisons in the same order as a window on its own.
    """
    q = len(vals)
    grid = policy.grid(Hp)
    refine = policy.name == "grid+golden" and len(grid) >= 2
    sups = []
    for u, idx, inside in _window_blocks(q, Hp):
        w = np.where(inside, vals[u][idx], 0.0)
        amps = np.empty((len(grid), len(idx)))
        for j, beta in enumerate(grid):
            amps[j] = np.abs(np.sum(w * np.exp(2j * np.pi * beta * u)[idx], axis=1))
        i = np.argmax(amps, axis=0)
        best = amps[i, np.arange(len(idx))]
        if not refine:
            sups.append(best)
            continue
        a = u[idx]

        def amp(beta):  # one beta per window
            return np.abs(np.sum(w * np.exp((2j * np.pi * beta)[:, None] * a), axis=1))

        step = 1.0 / len(grid)
        lo, hi = grid[i] - step, grid[i] + step
        invphi = (math.sqrt(5) - 1) / 2
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fc, fd = amp(c), amp(d)
        for _ in range(policy.golden_iters):
            left = fc < fd  # left: lo, c, fc = c, d, fd; else hi, d, fd = d, c, fc
            lo, hi = np.where(left, c, lo), np.where(left, hi, d)
            new = np.where(left, lo + invphi * (hi - lo), hi - invphi * (hi - lo))
            fnew = amp(new)
            c, d = np.where(left, d, new), np.where(left, new, c)
            fc, fd = np.where(left, fd, fnew), np.where(left, fnew, fc)
        sups.append(np.maximum(np.maximum(best, fc), fd))
    return np.concatenate(sups)


def windowed_twisted_stat(q: int, Hp: int, chi: Character,
                          beta_policy: BetaPolicy = BetaPolicy()) -> dict:
    """sum_{z < q} sup_beta |sum_{a in [z, z+Hp]} chi(a) e(a beta)|.

    Returns the statistic and the comparison scale
    q^(1 - delta/4 + eps) Hp + q Hp^(3/4) with delta read from Hp = q^(1/2 - delta).
    """
    if Hp < 0:
        raise InvalidInputError(f"need H' >= 0, got H'={Hp}")
    if Hp > q ** (0.5 - 0.1) + 1:
        raise RangeError(f"H' = {Hp} beyond q^(1/2 - 1/10)")
    total = sum(_windows_sup_beta(chi.values(), Hp, beta_policy).tolist())
    delta = 0.5 - math.log(max(Hp, 2)) / math.log(q) if q > 2 else 0.1
    scale = q ** (1 - delta / 4 + 0.01) * Hp + q * Hp**0.75
    return {"value": total, "scale": scale, "policy": beta_policy.name}


# ---------------------------------------------------------------------------
# sliding-window prime statistics


def _window_l1(positions, weights, classes, x, H, r, target):
    """sum over y in [0, x) of sum_v |S_v(y) - target| for windows [y, y+H].

    S_v(y) sums the weights of the positions p in [y, y+H] with class v; it is
    constant between the events y = max(p - H, 0), where p enters, and
    y = p + 1, where p leaves.  classes must lie in [0, r).
    """
    ev_y = np.concatenate([np.maximum(positions - H, 0), positions + 1])
    ev_c = np.concatenate([classes, classes])
    ev_w = np.concatenate([weights, -weights])
    order = np.lexsort((ev_y, ev_c))
    ev_y, ev_c, ev_w = ev_y[order], ev_c[order], ev_w[order]
    first = np.ones(len(ev_c), dtype=bool)  # first event of its class
    first[1:] = ev_c[1:] != ev_c[:-1]
    # S_v right after each event: the running sum restarted at each class
    csum = np.cumsum(ev_w)
    before = np.concatenate([[0.0], csum[:-1]])
    counts = csum - before[first][np.cumsum(first) - 1]
    # each count holds until the class's next event, the last one until x
    seg_end = np.empty_like(ev_y)
    seg_end[:-1] = ev_y[1:]
    seg_end[np.roll(first, -1)] = x
    lengths = np.minimum(seg_end, x) - np.minimum(ev_y, x)
    total = float(np.sum(np.abs(counts - target) * lengths))
    # S_v = 0 before a class's first event and throughout a class without events
    idle = np.sum(np.minimum(ev_y[first], x)) + x * (r - np.count_nonzero(first))
    return total + target * float(idle)


def huxley_stat_progressions(x: int, H: int, q: int, r: int, primes=None) -> dict:
    """sum_{y < x} sum_{v=1..r} |sum_{p in [y,y+H], p_q = v mod r} log p - H/r|.

    With H = x this collapses to the single window [0, x].  Returns the value
    and the trivial scale H * x (H for the collapsed case).
    """
    if min(x, H, q, r) < 1:
        raise PreconditionError(f"need x, H, q, r >= 1, got x={x}, H={H}, q={q}, r={r}")
    if math.gcd(r, q) != 1:
        raise PreconditionError(f"need (r, q) = 1, got ({r}, {q})")
    if x > 10**8:
        raise ResourceError("sliding-window budget is x <= 1e8")
    src = primes if primes is not None else default_source()
    ps = src.primes_in(2, x + (0 if H == x else H))
    logp = np.log(ps.astype(np.float64))
    classes = ((ps % q) % r).astype(np.int64)
    if H == x:
        sums = np.bincount(classes, weights=logp, minlength=r)
        value = float(np.sum(np.abs(sums - H / r)))
        return {"value": value, "trivial_scale": float(H), "windows": 1}
    value = float(_window_l1(ps, logp, classes, x, H, r, H / r))
    return {"value": value, "trivial_scale": float(H) * x, "windows": x}


def huxley_stat_windows(x: int, H: int, q: int, r: int, Hp: int, primes=None,
                        beta_policy: BetaPolicy = BetaPolicy()) -> dict:
    """The windowed/twisted hybrid statistic with sup over (beta, v).

    sum over window starts y (and z < q) of
    sup_{beta, v} | sum_{p in [y,y+H], p_q = v (r), p_q in [z,z+Hp]} e(p_q beta) log p
                    - (H/phi(q)) sum_{(a,q)=1, a = v (r), a in [z,z+Hp]} e(a beta) |.

    Only the H = x collapse (single y window) is offered at scale; the prime
    side then depends on p only through p_q, so the sum collapses onto the
    residue histogram of log-weights.
    """
    if H != x:
        raise ResourceError("general H < x windows are desk-infeasible; use H = x")
    src = primes if primes is not None else default_source()
    ps = src.primes_in(2, x)
    logp = np.log(ps.astype(np.float64))
    W = np.bincount((ps % q).astype(np.int64), weights=logp, minlength=q)
    units = np.gcd(np.arange(q), q) == 1
    D = W - np.where(units, H / euler_phi(q), 0.0)
    grid = beta_policy.grid(Hp)
    sups = []
    for u, idx, inside in _window_blocks(q, Hp, width=r):
        nz = len(idx)
        # bin (z, v) adds its terms in the order of t, as a window on its own
        keys = (np.arange(nz)[:, None] * r + (u % r)[idx]).ravel()
        dz = np.where(inside, D[u][idx], 0.0).ravel()
        flat = idx.ravel()
        best = np.zeros(nz)
        for beta in grid:
            tw = np.exp(2j * np.pi * beta * u)[flat]
            diff_re = np.bincount(keys, weights=dz * tw.real, minlength=nz * r)
            diff_im = np.bincount(keys, weights=dz * tw.imag, minlength=nz * r)
            best = np.maximum(best, np.hypot(diff_re, diff_im).reshape(nz, r).max(axis=1))
        sups.append(best)
    total = sum(np.concatenate(sups).tolist())
    return {"value": total, "trivial_scale": float(x) * H * Hp, "policy": beta_policy.name}


def residue_progression_gap(q: int, r: int, d: int) -> dict:
    """(1/r) sum_{a <= r} |#{n <= q, (n,d) = 1, n = a mod r} - (phi(d)/d)(q/r)|."""
    if math.gcd(r, q) != 1:
        raise PreconditionError(f"need (r, q) = 1")
    if d < 1 or q % d != 0:
        raise InvalidInputError(f"d = {d} must divide q = {q}")
    n = np.arange(q + 1, dtype=np.int64)
    mask = np.ones(q + 1, dtype=np.float64)
    mask[0] = 0.0
    for p, _ in factorize(d):
        mask[::p] = 0.0
    counts = np.bincount((n % r).astype(np.int64), weights=mask, minlength=r)
    normalizer = euler_phi(d) / d * q / r
    gap = float(np.mean(np.abs(counts - normalizer)))
    return {"value": gap, "normalizer": normalizer}


def twisted_residue_window(q: int, d: int, r: int, a: int, y: int, H: int, beta: float):
    """The two window sums of the small-beta comparison.

    Returns (sum over n in [y, y+H], (n,d) = 1, n = a mod r of e(n beta),
             (1/phi(r)) sum over n in [y, y+H], (n, r d) = 1 of e(n beta)).
    The guarantee needs |beta| <= e^(-r); larger twists are out of range.
    """
    if abs(beta) > math.exp(-r):
        raise RangeError(f"|beta| = {abs(beta):.3e} beyond e^(-r)")
    n = np.arange(y, y + H + 1, dtype=np.int64)
    cop_d = np.ones(len(n), dtype=bool)
    for p, _ in factorize(d):
        cop_d &= n % p != 0
    first = complex(np.sum(e(n[cop_d & (n % r == a % r)] * beta)))
    cop_rd = cop_d.copy()
    for p, _ in factorize(r):
        cop_rd &= n % p != 0
    second = complex(np.sum(e(n[cop_rd] * beta)) / euler_phi(r))
    return first, second


def window_coprime_count(qp: int, y: int, H: int) -> dict:
    """#{n in [y, y+H] : (n, q') = 1} against the smooth count H phi(q')/q'."""
    n = np.arange(y, y + H + 1, dtype=np.int64)
    mask = np.ones(len(n), dtype=bool)
    for p, _ in factorize(qp):
        mask &= n % p != 0
    count = int(np.count_nonzero(mask))
    expected = (H + 1) * euler_phi(qp) / qp
    return {"count": count, "expected": expected, "gap": abs(count - expected)}
