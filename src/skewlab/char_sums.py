"""Dirichlet character groups and the windowed/progression prime statistics.

Characters are built by CRT over prime-power factors, one record per cyclic
factor of (Z/q)*: its prime, modulus, order, discrete-log table (the powers of
its generator, by doubling) and conductor exponent offset, so the conductor is
a per-factor lookup.  Values are exact roots of unity (group exponent L, integer
exponents), so a table costs O(q omega(q)) memory, not phi(q) q: it builds the
exponent rows of a block of WINDOW_BLOCK_ELEMS / q consecutive characters by one
matrix product, and a character gathers its read-only complex row from
zeta_L^0, ..., zeta_L^(L-1), 0 (non-units) once.

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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from skewlab.dd import e
from skewlab.errors import (IntegrityError, InvalidInputError, PreconditionError, RangeError,
                            ResourceError)
from skewlab.primes import coprime_mask, default_source, euler_phi, factorize

# elements of one (z, t) block of window positions in the beta-sup statistics
WINDOW_BLOCK_ELEMS = 1 << 16
BETA_OVERSAMPLE = 4  # beta grid points per unit of H'
GOLDEN_ITERS = 20  # golden-section steps of windowed_twisted_stat's refine


# ---------------------------------------------------------------------------
# character group construction


def _primitive_root_prime_power(p: int, e: int) -> int:
    """The least primitive root g mod p, or g + p when e > 1 and g^(p-1) = 1 mod p^2."""
    fac = [f for f, _ in factorize(p - 1)]
    g = next((g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in fac)), None)
    if g is None:
        raise IntegrityError(f"no primitive root mod {p}")
    return g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g


def _powers(g: int, n: int, m: int) -> np.ndarray:
    """g^0, ..., g^(n-1) mod m by doubling; int64 products stay below m^2 <= 1e12."""
    out = np.ones(n, dtype=np.int64)
    size, step = 1, g % m  # out[:size] is filled and step = g^size mod m
    while size < n:
        take = min(size, n - size)
        out[size : size + take] = out[:take] * step % m
        size += take
        step = step * step % m
    return out


def _dlog_table(modulus: int, residues: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """logs[i] at residues[i] over [0, modulus), -1 on the other residues."""
    tbl = np.full(modulus, -1, dtype=np.int64)
    tbl[residues] = logs
    return tbl


@dataclass(frozen=True, eq=False)
class _Component:
    """One cyclic factor of (Z/q)* at the prime p: modulus p^e, order, dlog table.

    A character of order d > 1 on the factor has conductor p^(c + v_p(d)),
    with the offset c = 2 on the factor <5> of (Z/2^e)* and c = 1 on the others.
    """

    p: int
    modulus: int
    order: int
    dlog: np.ndarray
    c: int = 1


def _components_of(fac) -> list:
    """The cyclic factors of (Z/q)*, from the factorization [(p, e), ...] of q."""
    comps = []
    for p, ex in fac:
        pe = p**ex
        if p != 2:
            order = pe // p * (p - 1)
            powers = _powers(_primitive_root_prime_power(p, ex), order, pe)
            comps.append(_Component(p, pe, order, _dlog_table(pe, powers, np.arange(order))))
        elif ex >= 2:
            # (Z/2^e)* = <-1> x <5>: a = +-5^k, and {5^k} and {-5^k} are disjoint
            n = pe // 4
            five = _powers(5, n, pe)
            signed = np.concatenate([five, pe - five])
            comps.append(_Component(2, pe, 2, _dlog_table(pe, signed, np.repeat([0, 1], n))))
            if ex >= 3:  # <5> is trivial mod 4
                k = np.tile(np.arange(n), 2)
                comps.append(_Component(2, pe, n, _dlog_table(pe, signed, k), c=2))
    return comps


class Character:
    """One Dirichlet character mod q, stored as exponents of zeta_L; its value row
    (read-only) and its conductor are computed on the first request and kept."""

    __slots__ = ("table", "q", "ks", "_values", "_conductor")

    def __init__(self, table, ks):
        self.table, self.q, self.ks = table, table.q, tuple(map(int, ks))
        self._values = self._conductor = None

    def is_principal(self) -> bool:
        return not any(self.ks)

    def _component_orders(self) -> list:
        """d_j = order_j / gcd(order_j, k_j), the order of chi on each cyclic factor."""
        return [comp.order // math.gcd(comp.order, k)
                for k, comp in zip(self.ks, self.table.components)]

    def order(self) -> int:
        return math.lcm(*self._component_orders())

    def conductor(self) -> int:
        """prod over p | q of the largest p^(c_j + v_p(d_j)) over the factors j at p
        with d_j > 1, that is the lcm of these prime powers; only the two factors
        of 2^e share a prime.  d_j divides the order, whose p-part divides p^e, so
        gcd(d_j, p^e) = p^v_p(d_j)."""
        if self._conductor is None:
            self._conductor = math.lcm(*[
                comp.p**comp.c * math.gcd(d, comp.modulus)
                for comp, d in zip(self.table.components, self._component_orders()) if d > 1])
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.q

    def values(self) -> np.ndarray:
        """Complex value row over [0, q), 0 on non-units; read-only."""
        if self._values is None:
            tab = self.table
            n = sum(k % o * s for k, o, s in zip(self.ks, tab._orders, tab._strides))
            self._values = tab._roots.take(tab._exponent_block(n - n % tab._block)[n % tab._block])
            self._values.setflags(write=False)
        return self._values


class CharacterTable:
    """The full group of Dirichlet characters mod q.  Character n of the iteration
    order (mixed radix over the component orders, the last fastest) lies in block
    n // B, B = WINDOW_BLOCK_ELEMS // q; the table holds one block's exponent rows."""

    MAX_Q = 10**6

    def __init__(self, q: int):
        if q < 1:
            raise InvalidInputError("modulus must be >= 1")
        if q > self.MAX_Q:
            raise ResourceError(f"character table capped at q <= {self.MAX_Q}")
        self.q = q
        fac = factorize(q)
        self.components = _components_of(fac)
        self._orders = [comp.order for comp in self.components]
        self.exponent = math.lcm(*self._orders)
        self.phi = math.prod(self._orders)  # |(Z/q)*|
        self._strides = [math.prod(self._orders[j + 1 :]) for j in range(len(self._orders))]
        # per-component dlog over [0, q), -1 off its units; the non-units, read off the
        # primes of q so that a factor 2^1 with trivial unit group counts, get exponent L
        self._dlogs = np.array([np.tile(comp.dlog, q // comp.modulus) for comp in self.components],
                               dtype=np.float64).reshape(-1, q)
        self._non_units = np.flatnonzero(~coprime_mask(0, q - 1, [p for p, _ in fac]))
        self._block = max(1, WINDOW_BLOCK_ELEMS // q)
        # buffers allocated once, and the first character and rows of the block they hold
        self._buffers, self._block_lo, self._block_rows = None, -1, None

    @functools.cached_property
    def _roots(self) -> np.ndarray:
        """zeta_L^j for j < L, then 0 at index L (read by the non-units)."""
        L = self.exponent
        return np.append(np.exp(2j * np.pi * (np.arange(L, dtype=np.float64) / L)), 0.0)

    def _exponent_block(self, lo: int) -> np.ndarray:
        """Exponent rows sum_j k_j (L / order_j) dlog_j mod L (L on non-units) of the
        block from character lo, by one float64 product of (block x r) coefficients and
        (r x q) dlogs.  Each term is below L order_j <= L q, so the sum over r <= 8
        components stays below r L q <= 8e12 < 2^53 for q <= MAX_Q: the product is
        exact in any order, and so is floor(prod / L).  The next block overwrites them."""
        if lo == self._block_lo:
            return self._block_rows
        if self._buffers is None:
            B, q = self._block, self.q
            self._buffers = (np.empty((B, len(self._orders))), np.empty((B, q)),
                             np.empty((B, q)), np.empty((B, q), dtype=np.int64))
        n = np.arange(lo, min(lo + self._block, self.phi))
        coef, prod, quot, rows = (buf[: len(n)] for buf in self._buffers)
        L = self.exponent
        for j, (order, stride) in enumerate(zip(self._orders, self._strides)):
            coef[:, j] = n // stride % order * (L // order)
        np.dot(coef, self._dlogs, out=prod)
        np.floor(np.divide(prod, L, out=quot), out=quot)
        quot *= L
        rows[...] = np.subtract(prod, quot, out=prod)
        rows[:, self._non_units] = L
        self._block_lo, self._block_rows = lo, rows
        return rows

    def __iter__(self):
        for ks in itertools.product(*(range(order) for order in self._orders)):
            yield Character(self, ks)

    def principal(self) -> Character:
        return Character(self, (0,) * len(self.components))

    def orthogonality_defect(self) -> float:
        """max over character pairs of |sum_a chi(a) conj(psi(a)) - phi(q) delta|."""
        rows = np.empty((self.phi, self.q), dtype=np.complex128)
        for lo in range(0, self.phi, self._block):  # "clip" is unbuffered; all in [0, L]
            self._roots.take(self._exponent_block(lo), out=rows[lo : lo + self._block], mode="clip")
        gram = rows @ rows.conj().T
        target = self.phi * np.eye(len(rows))
        return float(np.max(np.abs(gram - target)))


build_characters = CharacterTable


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
    val = complex((chi.values() * _additive_twist(ee, x % ee)).sum())
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
    keys = np.arange(q, dtype=np.int64) % r
    # a < q, so the classes v >= q are empty and add 0
    sums_re = np.bincount(keys, weights=vals.real, minlength=min(r, q))
    sums_im = np.bincount(keys, weights=vals.imag, minlength=min(r, q))
    return float(np.sum(np.hypot(sums_re, sums_im)))


def _beta_grid(Hp: int) -> np.ndarray:
    """The betas j / n, j < n = max(1, BETA_OVERSAMPLE * Hp); {0} at Hp = 0."""
    n = max(1, BETA_OVERSAMPLE * Hp)
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


def _windows_sup_beta(vals: np.ndarray, Hp: int) -> np.ndarray:
    """sup_beta |sum_{a in [z, z+Hp], a < q} vals[a] e(a beta)| for every z < q.

    Each window takes the grid argmax, then (on two or more grid points) the
    golden-section refine with the same comparisons in the same order as a
    window on its own.
    """
    q = len(vals)
    grid = _beta_grid(Hp)
    sups = []
    for u, idx, inside in _window_blocks(q, Hp):
        w = np.where(inside, vals[u][idx], 0.0)
        amps = np.empty((len(grid), len(idx)))
        for j, beta in enumerate(grid):
            amps[j] = np.abs(np.sum(w * np.exp(2j * np.pi * beta * u)[idx], axis=1))
        i = np.argmax(amps, axis=0)
        best = amps[i, np.arange(len(idx))]
        if len(grid) < 2:
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
        for _ in range(GOLDEN_ITERS):
            left = fc < fd  # left: lo, c, fc = c, d, fd; else hi, d, fd = d, c, fc
            lo, hi = np.where(left, c, lo), np.where(left, hi, d)
            new = np.where(left, lo + invphi * (hi - lo), hi - invphi * (hi - lo))
            fnew = amp(new)
            c, d = np.where(left, d, new), np.where(left, new, c)
            fc, fd = np.where(left, fd, fnew), np.where(left, fnew, fc)
        sups.append(np.maximum(np.maximum(best, fc), fd))
    return np.concatenate(sups)


def windowed_twisted_stat(q: int, Hp: int, chi: Character) -> dict:
    """sum_{z < q} sup_beta |sum_{a in [z, z+Hp]} chi(a) e(a beta)|.

    Returns the statistic and the comparison scale
    q^(1 - delta/4 + eps) Hp + q Hp^(3/4) with delta read from Hp = q^(1/2 - delta).
    """
    if Hp < 0:
        raise InvalidInputError(f"need H' >= 0, got H'={Hp}")
    if Hp > q ** (0.5 - 0.1) + 1:
        raise RangeError(f"H' = {Hp} beyond q^(1/2 - 1/10)")
    total = sum(_windows_sup_beta(chi.values(), Hp).tolist())
    delta = 0.5 - math.log(max(Hp, 2)) / math.log(q) if q > 2 else 0.1
    scale = q ** (1 - delta / 4 + 0.01) * Hp + q * Hp**0.75
    return {"value": total, "scale": scale}


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
    if max(q, r) >= 2**63:  # the classes p_q mod r are int64
        raise RangeError(f"need q, r < 2**63, got q={q}, r={r}")
    if x > 10**8:
        raise ResourceError("sliding-window budget is x <= 1e8")
    src = primes if primes is not None else default_source()
    ps = src.primes_in(2, x + (0 if H == x else H))
    logp = np.log(ps.astype(np.float64))
    classes = ((ps % q) % r).astype(np.int64)
    if H == x:
        # classes = p_q mod r < min(q, r): each class v >= q holds no prime and adds H/r
        sums = np.bincount(classes, weights=logp, minlength=min(r, q))
        value = float(np.sum(np.abs(sums - H / r))) + max(r - q, 0) * (H / r)
        return {"value": value, "trivial_scale": float(H), "windows": 1}
    value = float(_window_l1(ps, logp, classes, x, H, r, H / r))
    return {"value": value, "trivial_scale": float(H) * x, "windows": x}


def huxley_stat_windows(x: int, H: int, q: int, r: int, Hp: int) -> dict:
    """The windowed/twisted hybrid statistic with sup over (beta, v).

    sum over window starts y (and z < q) of
    sup_{beta, v} | sum_{p in [y,y+H], p_q = v (r), p_q in [z,z+Hp]} e(p_q beta) log p
                    - (H/phi(q)) sum_{(a,q)=1, a = v (r), a in [z,z+Hp]} e(a beta) |.

    Only the H = x collapse (single y window) is offered at scale; the prime
    side then depends on p only through p_q, so the sum collapses onto the
    residue histogram of log-weights.  The sup over beta is the maximum over
    _beta_grid(Hp), with no golden-section refine.
    """
    if H != x:
        raise ResourceError("general H < x windows are desk-infeasible; use H = x")
    ps = default_source().primes_in(2, x)
    logp = np.log(ps.astype(np.float64))
    W = np.bincount((ps % q).astype(np.int64), weights=logp, minlength=q)
    units = coprime_mask(0, q - 1, [p for p, _ in factorize(q)])
    D = W - np.where(units, H / euler_phi(q), 0.0)
    grid = _beta_grid(Hp)
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
    return {"value": total, "trivial_scale": float(x) * H * Hp}


def window_coprime_count(qp: int, y: int, H: int) -> dict:
    """#{n in [y, y+H] : (n, q') = 1} against the smooth count H phi(q')/q'."""
    count = int(np.count_nonzero(coprime_mask(y, y + H, [p for p, _ in factorize(qp)])))
    expected = (H + 1) * euler_phi(qp) / qp
    return {"count": count, "expected": expected, "gap": abs(count - expected)}
