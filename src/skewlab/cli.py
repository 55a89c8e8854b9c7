"""Reproducible experiment driver.

Every run resolves a flat key=value config (file plus flag overrides), runs
one named experiment, and emits a JSON envelope {command, config, started,
rows} (plus a CSV next to it when --out ends in .csv).  Output is
byte-identical across reruns; set SOURCE_DATE_EPOCH to pin the envelope
timestamp.

A command's keys are its handler's keyword parameters: the name is the key,
the default is the default and the annotation is the type.  main casts each
given value once, by that annotation, and rejects any other key.
"""

import csv
import datetime
import inspect
import json
import math
import os
import sys

import numpy as np

from skewlab.errors import InvalidInputError, PreconditionError, ResourceError, SkewlabError

USAGE = "usage: skewlab COMMAND [--config PATH] [--out PATH] [--key value | --key=value ...]"


# discrepancy points, checked before allocating: N = 10**7 points take 718 MB, and 34 s at
# K = 50; skew_dynamics.DISCREPANCY_MAX_TERMS bounds the K Weyl sums
DISCREPANCY_MAX_N = 10**7
# the other work budgets, each about half a minute on a 2-core desk machine
COCYCLE_MAX_SAMPLES = 10**4  # ~0.9 ms a sample, nearly all of it its direct sum
PHASE_MAX_ROWS = 5 * 10**4  # ~40 us a row; rows = scales * m_samples * x_grid
# Heath-Brown: k Dirichlet convolutions of ~2 sqrt(N) strided slices, a few ms each at
# N = 1e5, then one (N // p + 1)-array per prime p <= N, O(N log log N) in all
IDENTITIES_MAX_N = 10**5
BUCHSTAB_MAX_WINDOWS = 10**4  # ~2 ms a window
# phi(q) value rows of q entries: ~25 ns an entry for charsum progression, ~12 for gauss
CHARSUM_MAX_ENTRIES = 10**9
# charsum windowed: q windows of H' + 1 terms, ~2 us per q * H' (~5 us at H' = 2)
CHARSUM_MAX_WINDOWED = 10**7
RESIDUE_MAX_INDICES = 10**9  # sum of z over the scales; ~34 ns an orbit index
# the key types a handler may declare, and what a value of each must be
KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a path or text",
         tuple[int, ...]: "a comma list of integers", tuple[float, ...]: "a comma list of numbers"}


def _finite(value, text):
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidInputError(f"{text!r} is not a finite number")
    return value


def _parse_scalar(text):
    """A finite number, true or false, or else the text itself."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        try:
            value = float(text)
        except ValueError:
            return text
        value = int(value) if value.is_integer() else value
    # JSON lists and objects stay text: list keys split it, scalar keys reject it
    return _finite(value, text) if isinstance(value, (int, float, str)) else text


def _number(key, text, kind):
    """text as kind, int or float: a word is a ValueError; true, false, a non-integral
    number for an int and an integer beyond float range for a float are refused."""
    value = _parse_scalar(text)
    if isinstance(value, str):
        raise ValueError(f"{key} must be a number, got {text!r}")
    if type(value) is bool or (kind is int and isinstance(value, float)
                               and not value.is_integer()):
        raise InvalidInputError(f"{key} must be {KINDS[kind]}, got {text!r}")
    try:
        return kind(value)
    except OverflowError:
        raise InvalidInputError(f"{key}: {text!r} is not a finite number") from None


def _cast(key, kind, value):
    """A given value (text, or True for a bare flag) as the annotated kind."""
    if kind is bool:
        value = value if value is True else _parse_scalar(value)
        if type(value) is not bool:
            raise InvalidInputError(f"{key} must be {KINDS[bool]}, got {value!r}")
        return value
    if value is True:
        raise InvalidInputError(f"{key} needs {KINDS[kind]}, got a bare flag")
    if kind is str:
        return value
    if kind in (int, float):
        return _number(key, value, kind)
    parts = (part.strip() for part in value.strip("[]").split(","))
    return tuple(_number(key, part, kind.__args__[0]) for part in parts if part)


def _budget(what, value, limit):
    if value < 0:
        raise InvalidInputError(f"{what} must be >= 0, got {value}")
    if value > limit:
        raise ResourceError(f"{what} budget is {limit}, got {value}")


def load_config(path):
    """{key: text} from flat `key = value` lines; # starts a comment."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            cfg[key.strip()] = val.strip()
    return cfg


def _parse_flags(tokens):
    """(flags, paths) from --key value and --key=value tokens, every value kept as text.

    A flag followed by another flag, or by nothing, is bare and means true;
    config and out need a path.
    """
    flags, paths = {}, {}
    rest = list(tokens)[::-1]
    while rest:
        tok = rest.pop()
        if not tok.startswith("--"):
            raise InvalidInputError(f"unexpected argument {tok!r}")
        key, eq, val = tok[2:].partition("=")
        key = key.replace("-", "_")
        if not eq:
            val = rest.pop() if rest and not rest[-1].startswith("--") else True
        if key in ("config", "out"):
            if val is True:
                raise InvalidInputError(f"--{key} needs a path")
            paths[key] = val
        else:
            flags[key] = val
    return flags, paths


def _started():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        dt = datetime.datetime.now(datetime.timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _emit(command, config, rows, out_path):
    envelope = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "started": _started(),
        "rows": rows,
    }
    text = json.dumps(envelope, indent=1, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    if out_path.endswith(".csv"):
        with open(out_path, "w", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        out_path += ".json"
    with open(out_path, "w") as fh:
        fh.write(text)


def _preset_pair(which):
    from skewlab.presets import phase_pair, prime_pair

    if which == "phase":
        return phase_pair()
    if which != "prime":
        raise PreconditionError(f"unknown pair {which!r}; choose phase or prime")
    return prime_pair()


def _refuse_unread(mode, **keys):
    """Refuse the first of keys given (not None): mode does not read them."""
    for key, value in keys.items():
        if value is not None:
            raise InvalidInputError(f"{mode} does not read {key}")


def _rng(seed):
    """The generator of a seeded command, made before any work; a seed < 0 is refused."""
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _ratio(value, scale):
    if scale == 0:
        raise PreconditionError("the trivial scale is 0: window lengths must be >= 1")
    return value / scale


# ---------------------------------------------------------------------------
# command implementations: each keyword parameter is a key (see the module docstring)


def cmd_cf(quotients: tuple[int, ...] = None, decimal: str = None, depth: int = None):
    from skewlab.diophantine import ContinuedFraction, cf_from_real

    # depth defaults to 10, or to the length of a shorter quotient list
    if quotients is not None:
        _refuse_unread("cf --quotients", decimal=decimal)
        cf = ContinuedFraction(quotients)
        depth = min(10, len(quotients)) if depth is None else depth
        if not 1 <= depth <= len(quotients):
            raise InvalidInputError(f"depth {depth} outside [1, {len(quotients)}]")
    elif decimal is not None:
        depth = 10 if depth is None else depth
        cf = cf_from_real(decimal, depth)
    else:
        raise PreconditionError("cf needs quotients=... or decimal=...")
    return [{"k": k, "a_k": cf.quotients[k - 1] if k >= 1 else 0,
             "p_k": str(cf.p(k)), "q_k": str(cf.q(k))}
            for k in range(depth + 1)]


def cmd_cocycle_check(samples: int = 100, spec: str = None, decay_rate: float = None,
                      quotients: tuple[int, ...] = None, seed: int = 0):
    from skewlab.cocycle import AnalyticCocycle, birkhoff_closed, birkhoff_direct
    from skewlab.diophantine import ContinuedFraction

    rng = _rng(seed)
    _budget("cocycle-check samples", samples, COCYCLE_MAX_SAMPLES)
    if spec is not None:
        g = AnalyticCocycle.from_csv(spec, 0.095 if decay_rate is None else decay_rate)
        cf = ContinuedFraction((tuple(range(1, 9)) if quotients is None else quotients) * 4)
    else:
        from skewlab.presets import prime_pair

        _refuse_unread("cocycle-check without --spec", decay_rate=decay_rate, quotients=quotients)
        cf, g, _ = prime_pair()
    n, m, x = np.empty(samples, np.int64), np.empty(samples, np.int64), np.empty(samples)
    for k in range(samples):  # n, m and x of each sample, drawn in that order
        n[k], m[k], x[k] = rng.integers(1, 10_000), rng.integers(1, 10_000), rng.random()
    d = np.array([birkhoff_direct(g, cf, nk, xk) for nk, xk in zip(n.tolist(), x.tolist())])
    c = birkhoff_closed(g, cf, n, x)
    identity = birkhoff_closed(g, cf, n + m, x) - (c + birkhoff_closed(g, cf, m, x, orbit_shift=n))
    return [{"check": "closed_vs_direct", "samples": samples,
             "defect": float(np.max(np.abs(d - c), initial=0.0))},
            {"check": "cocycle_identity", "samples": samples,
             "defect": float(np.max(np.abs(identity), initial=0.0))}]


def cmd_phase(scales: tuple[int, ...] = (1, 2, 3, 4), m_samples: int = 10, w: int = 1,
              x_grid: int = 16):
    from skewlab.phase_approx import build_phase_poly, polap_error
    from skewlab.presets import phase_pair

    cf, g, params, red = phase_pair()
    _budget("phase rows (scales * m_samples * x_grid)", len(scales) * m_samples * x_grid,
            PHASE_MAX_ROWS)
    rows = []
    for n in scales:
        P = build_phase_poly(red, cf, n, params)
        mmax = float(cf.q(n + 1)) ** (1 - params.delta)
        ms = np.unique(np.logspace(0, math.log10(mmax), m_samples).astype(np.int64))
        m, x = (a.ravel() for a in np.meshgrid(ms, np.arange(x_grid) / x_grid, indexing="ij"))
        err = polap_error(g, P, x, m, w, cf, params)  # rows in (m, x) order
        rows += [{"n": n, "m": mk, "w": w, "x": xk, "error": ek}
                 for mk, xk, ek in zip(m.tolist(), x.tolist(), err.tolist())]
    return rows


def cmd_orbit(pair: str = "prime", x: float = 0.0, y: float = 0.0,
              steps: tuple[int, ...] = (1, 10, 100, 1000)):
    from skewlab.skew_dynamics import SkewProduct

    cf, g, *_ = _preset_pair(pair)
    T = SkewProduct(cf, g)
    rows = []
    for n in steps:
        xn, yn = T.iterate(n, x, y)
        rows.append({"n": n, "x": xn, "y": yn})
    return rows


def cmd_prime_average(pair: str = "prime", b: int = 0, c: int = 1, x: float = 0.0,
                      y: float = 0.0, N: tuple[int, ...] = (10**5, 10**6)):
    from skewlab.skew_dynamics import Observable, SkewProduct, prime_weighted_averages

    cf, g, *_ = _preset_pair(pair)
    T = SkewProduct(cf, g)
    f = Observable(b, c)
    averages = prime_weighted_averages(T, (f,), N, x, y)  # every N in one pass
    rows = []
    for n in N:
        avg, theta = averages[f, n]
        rows.append({"N": n, "b": b, "c": c, "re_avg": avg.real,
                     "im_avg": avg.imag, "theta_ratio": theta})
    return rows


def cmd_residue_average(pair: str = "prime", b: int = 0, c: int = 1,
                        scales: tuple[int, ...] = (1, 2, 3)):
    from skewlab.skew_dynamics import Observable, SkewProduct, reduced_residue_average

    cf, g, *_ = _preset_pair(pair)
    T = SkewProduct(cf, g)
    zs = [cf.q(n) for n in scales]
    _budget("residue-average sum of z", sum(zs), RESIDUE_MAX_INDICES)
    rows = []
    for n, z in zip(scales, zs):
        v = reduced_residue_average(T, Observable(b, c), z, z, 0.0, 0.0)
        rows.append({"scale": n, "z": z, "d": z, "re": v.real, "im": v.imag,
                     "modulus": abs(v)})
    return rows


def _stat_row(stat_name, q, value, scale, x="", H="", r="", Hp=""):
    return {"stat_name": stat_name, "x": x, "H": H, "q": q, "r": r, "Hp": Hp, "value": value,
            "trivial_scale": scale, "ratio": _ratio(value, scale)}


def cmd_huxley(x: tuple[int, ...] = (10**5,), H: int = None, q: int = 97, r: int = 5):
    from skewlab.char_sums import huxley_stat_progressions

    rows = []
    for x1 in x:
        h = x1 if H is None else H
        res = huxley_stat_progressions(x1, h, q, r)
        rows.append(_stat_row("huxley_progressions", q, res["value"], res["trivial_scale"],
                              x=x1, H=h, r=r))
    return rows


def cmd_charsum(q: int = 101, stat: str = "progression", r: int = None, gauss_x: int = None,
                Hp: int = None, chi_index: int = None):
    from skewlab.char_sums import (Character, CharacterTable, gauss_sum,
                                   progression_char_stat, windowed_twisted_stat)
    from skewlab.primes import euler_phi

    unread = {"progression": dict(gauss_x=gauss_x, Hp=Hp, chi_index=chi_index),
              "gauss": dict(r=r, Hp=Hp, chi_index=chi_index),
              "windowed": dict(r=r, gauss_x=gauss_x)}
    if stat not in unread:
        raise PreconditionError(f"unknown charsum stat {stat!r}")
    _refuse_unread(f"charsum --stat {stat}", **unread[stat])
    if stat in ("progression", "gauss") and 1 <= q <= CharacterTable.MAX_Q:
        _budget("charsum phi(q) * q", euler_phi(q) * q, CHARSUM_MAX_ENTRIES)
    if stat == "windowed" and q >= 1:  # windowed_twisted_stat refuses H' > q^0.4 + 1
        Hp = max(2, int(q**0.25)) if Hp is None else Hp
        _budget("charsum windowed q * H'", q * min(Hp, int(q**0.4) + 1), CHARSUM_MAX_WINDOWED)
    tab = CharacterTable(q)
    if stat == "progression":
        r = 3 if r is None else r
        scale = math.sqrt(r * q) * math.log(q)
        return [_stat_row("progression", q, progression_char_stat(q, r, chi), scale, r=r)
                for chi in tab if not chi.is_principal()]
    if stat == "gauss":
        gauss_x = 1 if gauss_x is None else gauss_x
        return [_stat_row("gauss", q, abs(gauss_sum(chi, gauss_x)), math.sqrt(q))
                for chi in tab if chi.is_primitive()]
    chi_index = 0 if chi_index is None else chi_index
    if not 0 <= chi_index < tab.phi - 1:  # character 0 is the principal one
        raise PreconditionError(f"chi_index {chi_index} out of range: mod {q} has "
                                f"{tab.phi - 1} non-principal characters")
    res = windowed_twisted_stat(q, Hp, Character(tab, chi_index + 1))
    return [_stat_row("windowed_twisted", q, res["value"], res["scale"], Hp=Hp)]


def cmd_identities(n_max: int = 2000, z: tuple[int, ...] = (2, 5, 10),
                   k: tuple[int, ...] = (1, 2), buchstab_windows: int = 20, seed: int = 0):
    from skewlab.identities import (buchstab_check, heathbrown_coeff_check,
                                    linnik_check, vaughan_decompose)

    rng = _rng(seed)
    if n_max < 2:
        raise PreconditionError(f"identities needs n_max >= 2, got n_max={n_max}")
    if min(k, default=1) < 1:
        raise PreconditionError(f"heath-brown needs every k >= 1, got k={min(k)}")
    _budget("identities n_max", n_max, IDENTITIES_MAX_N)
    _budget("buchstab_windows", buchstab_windows, BUCHSTAB_MAX_WINDOWS)
    rows = []
    for z1 in z:
        for n in range(z1 + 1, n_max + 1):
            vaughan_decompose(n, z1)  # raises IntegrityError unless the total is Lambda(n)
        rows.append({"identity": "vaughan", "n_or_range": f"({z1},{n_max}]",
                     "params": f"z={z1}", "defect": 0.0})
    for z1 in z:
        w = 0.0
        for n in range(2, min(n_max, 2000) + 1):
            lhs, rhs = linnik_check(n, z1)
            w = max(w, abs(float(lhs - rhs)))
        rows.append({"identity": "linnik", "n_or_range": f"[2,{min(n_max, 2000)}]",
                     "params": f"z={z1}", "defect": w})
    for k1 in k:
        z1 = math.ceil(n_max ** (1.0 / k1))
        d = heathbrown_coeff_check(k1, z1, n_max)
        rows.append({"identity": "heath-brown", "n_or_range": f"[1,{n_max}]",
                     "params": f"k={k1},z={z1}", "defect": d})
    w = 0
    for _ in range(buchstab_windows):
        lo = int(rng.integers(1, 10**6 - 10**4))
        length = int(rng.integers(10, 10**4))
        ww = int(rng.integers(2, 50))
        zz = int(rng.integers(ww, 200))
        lhs, rhs = buchstab_check((lo, lo + length), ww, zz)
        w = max(w, abs(lhs - rhs))
    rows.append({"identity": "buchstab", "n_or_range": "random windows",
                 "params": "seeded", "defect": w})
    return rows


def cmd_ms_sum(N: int = 10**6, H: int = None, r: int = 1, a: int = None,
               coeffs: tuple[float, ...] = (), eta: float = 0.05, B: float = 2.0):
    from skewlab.poly_prime_sums import MS_SUM_MAX_H, ShiftedPoly, ms_gap, oscillation_classify

    if N < 2:  # before N**0.7, which is complex for N < 0
        raise PreconditionError(f"ms-sum needs N >= 2, got N={N}")
    H = int(N**0.7) if H is None else H
    _budget("ms-sum H", H, MS_SUM_MAX_H)
    a = (0 if r == 1 else 1) if a is None else a
    g = ShiftedPoly(N, () if coeffs == (0.0,) else coeffs)  # --coeffs 0: no polynomial
    cls, witness = oscillation_classify(g, H, N, B)  # before ms_gap: a refusal costs no sum
    gap, budget = ms_gap(N, H, r, a, g, eta)
    return [{"N": N, "H": H, "r": r, "a": a, "deg": g.degree, "gap": gap,
             "budget": budget, "ratio": gap / budget if budget else math.inf,
             "class": cls if witness is None else f"{cls}(q={witness})"}]


def cmd_counterexample(stages: int = 3, include_h: bool = False, mu_twist: bool = False,
                       eps: float = None, dump: str = None):
    from skewlab.presets import counterexample_stages

    if mu_twist:
        _refuse_unread("counterexample --mu_twist", eps=eps)
    eps = 0.05 if eps is None else eps
    if eps <= 0:
        raise InvalidInputError(f"eps must be > 0, got {eps}")
    st = counterexample_stages(n_stages=stages, include_h=include_h, mu_twist=mu_twist)
    st.solve_all()
    rows = []
    for n in range(1, st.solved() + 1):
        if st.mu_twist:
            v = st.mu_twist_average(n)
            rows.append({"n": n, "k_n": st.stage_k[n - 1], "q": st.q_of(n),
                         "mu_twist_avg": abs(v)})
        else:
            rep = st.verify_phi(n, eps)
            rows.append({"n": n, "k_n": st.stage_k[n - 1], "q": st.q_of(n),
                         "worst_deviation": rep["worst_deviation"],
                         "tail_bound": rep["tail_bound"], "passed": rep["passed"],
                         "bump_average": st.bump_average(n)})
    if dump:
        with open(dump, "w") as fh:
            st.write_json(fh, eps)
    return rows


def cmd_discrepancy(N: tuple[int, ...] = (10**3, 10**4), K: int = 50):
    from skewlab.cocycle import orbit_angles
    from skewlab.presets import prime_pair
    from skewlab.skew_dynamics import (DISCREPANCY_MAX_TERMS, exact_star_discrepancy,
                                       star_discrepancy_bound)

    cf, _, _ = prime_pair()
    for n in N:
        if n > DISCREPANCY_MAX_N or K * (n + 256) > DISCREPANCY_MAX_TERMS:
            raise ResourceError(f"discrepancy budget is N <= {DISCREPANCY_MAX_N} and "
                                f"K (N + 256) <= {DISCREPANCY_MAX_TERMS}, got N={n}, K={K}")
    rows = []
    for n in N:
        pts = orbit_angles(cf, np.arange(1, n + 1, dtype=np.int64), 0.0)
        rows.append({"N": n, "K": K, "bound": star_discrepancy_bound(pts, K),
                     "exact": exact_star_discrepancy(pts)})
    return rows


HANDLERS = {
    "cf": cmd_cf,
    "cocycle-check": cmd_cocycle_check,
    "phase": cmd_phase,
    "orbit": cmd_orbit,
    "prime-average": cmd_prime_average,
    "residue-average": cmd_residue_average,
    "huxley": cmd_huxley,
    "charsum": cmd_charsum,
    "identities": cmd_identities,
    "ms-sum": cmd_ms_sum,
    "counterexample": cmd_counterexample,
    "discrepancy": cmd_discrepancy,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or {"-h", "--help"} & set(argv):
        print(f"{USAGE}\ncommands: {', '.join(HANDLERS)}")
        return 0 if argv else 1
    command = argv[0]
    if command not in HANDLERS:
        print(f"unknown command {command!r}; choose from {', '.join(HANDLERS)}",
              file=sys.stderr)
        return 1
    try:
        flags, paths = _parse_flags(argv[1:])
        cfg = load_config(paths["config"]) if "config" in paths else {}
        cfg.update(flags)
        handler = HANDLERS[command]
        params = inspect.signature(handler).parameters
        kinds = {key: p.annotation for key, p in params.items()}
        unknown = sorted(set(cfg) - set(kinds))
        if unknown:
            raise InvalidInputError(f"{command} has no key {unknown[0]!r}; it reads "
                                    f"{', '.join(kinds)}")
        rows = handler(**{key: _cast(key, kinds[key], value) for key, value in cfg.items()})
        # the envelope records text keys as given, and any other value as parsed
        config = {key: value if value is True or kinds[key] is str else _parse_scalar(value)
                  for key, value in cfg.items()}
        _emit(command, config, rows, paths.get("out"))
    except InvalidInputError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except SkewlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # a malformed or missing value (--N abc), or a file that cannot be read or written
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
