"""Reproducible experiment driver.

Every run resolves a flat key=value config (file plus flag overrides), runs
one named experiment, and emits a JSON envelope {command, config, started,
rows} (plus a CSV next to it when --out ends in .csv).  Output is
byte-identical across reruns and thread counts; set SOURCE_DATE_EPOCH to pin
the envelope timestamp.
"""

import csv
import datetime
import json
import math
import os
import sys

import numpy as np

from skewlab.errors import InvalidInputError, PreconditionError, ResourceError, SkewlabError

USAGE = ("usage: skewlab COMMAND [--config PATH] [--out PATH] [--threads N] [--seed N] "
         "[--key value | --key=value ...]")


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


def _parse_list(text, cast=float):
    out = []
    for part in str(text).strip("[]").split(","):
        part = part.strip()
        if part:
            v = _finite(float(part), part)
            out.append(cast(v) if cast is not float else v)
    return out


def _int_list(text):
    return _parse_list(text, cast=int)


def load_config(path):
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            cfg[key.strip()] = _parse_scalar(val.strip())
    return cfg


def _parse_flags(tokens):
    """(flags, paths) from --key value and --key=value tokens.

    A trailing bare flag means true; config and out keep their text as a path.
    """
    flags, paths = {}, {}
    it = iter(tokens)
    for tok in it:
        if not tok.startswith("--"):
            raise InvalidInputError(f"unexpected argument {tok!r}")
        key, eq, val = tok[2:].partition("=")
        key = key.replace("-", "_")
        if not eq:
            val = next(it, None)
        if key in ("config", "out"):
            if val is None:
                raise InvalidInputError(f"--{key} needs a path")
            paths[key] = val
        else:
            flags[key] = True if val is None else _parse_scalar(val)
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
    text = json.dumps(envelope, indent=1, sort_keys=True)
    if out_path is not None:
        if out_path.endswith(".csv"):
            with open(out_path, "w", newline="") as fh:
                if rows:
                    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                    writer.writeheader()
                    writer.writerows(rows)
            with open(out_path + ".json", "w") as fh:
                fh.write(text + "\n")
        else:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _preset_pair(which):
    from skewlab.presets import phase_pair, prime_pair

    if which == "phase":
        return phase_pair()
    if which != "prime":
        raise PreconditionError(f"unknown pair {which!r}; choose phase or prime")
    return (*prime_pair(), None)


def _ratio(value, scale):
    if scale == 0:
        raise PreconditionError("the trivial scale is 0: window lengths must be >= 1")
    return value / scale


# ---------------------------------------------------------------------------
# command implementations


def cmd_cf(cfg):
    from skewlab.diophantine import cf_from_quotients, cf_from_real

    depth = int(cfg.get("depth", 10))
    if "quotients" in cfg:
        cf = cf_from_quotients(_int_list(cfg["quotients"]), depth)
    elif "decimal" in cfg:
        cf = cf_from_real(str(cfg["decimal"]), depth)
    else:
        raise PreconditionError("cf needs quotients=... or decimal=...")
    rows = [{"k": k, "a_k": cf.quotients[k - 1] if k >= 1 else 0,
             "p_k": str(cf.p(k)), "q_k": str(cf.q(k))}
            for k in range(0, min(depth, cf.max_index()) + 1)]
    rows[0]["a_k"] = 0
    return rows


def cmd_cocycle_check(cfg):
    from skewlab.cocycle import AnalyticCocycle, birkhoff_closed, birkhoff_direct
    from skewlab.diophantine import cf_from_quotients

    seed = int(cfg.get("seed", 0))
    samples = int(cfg.get("samples", 100))
    if "spec" in cfg:
        g = AnalyticCocycle.from_csv(cfg["spec"], float(cfg.get("decay_rate", 0.095)))
        cf = cf_from_quotients(_int_list(cfg.get("quotients", "1,2,3,4,5,6,7,8")) * 4)
    else:
        from skewlab.presets import prime_pair

        cf, g, _ = prime_pair()
    rng = np.random.default_rng(seed)
    rows = []
    worst_pair = worst_id = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 10_000))
        m = int(rng.integers(1, 10_000))
        x = float(rng.random())
        d = birkhoff_direct(g, cf, n, x)
        c = birkhoff_closed(g, cf, n, x)
        worst_pair = max(worst_pair, abs(d - c))
        lhs = birkhoff_closed(g, cf, n + m, x)
        rhs = c + birkhoff_closed(g, cf, m, x, orbit_shift=n)
        worst_id = max(worst_id, abs(lhs - rhs))
    rows.append({"check": "closed_vs_direct", "samples": samples, "defect": worst_pair})
    rows.append({"check": "cocycle_identity", "samples": samples, "defect": worst_id})
    return rows


def cmd_phase(cfg):
    from skewlab.phase_approx import build_phase_poly, polap_error
    from skewlab.presets import phase_pair

    cf, g, params, red = phase_pair()
    scales = _int_list(cfg.get("scales", "1,2,3,4"))
    n_m = int(cfg.get("m_samples", 10))
    w = int(cfg.get("w", 1))
    seed = int(cfg.get("seed", 0))
    grid = int(cfg.get("x_grid", 16))
    rows = []
    for n in scales:
        P = build_phase_poly(red, cf, n, params)
        mmax = float(cf.q(n + 1)) ** (1 - params.delta)
        ms = np.unique(np.logspace(0, math.log10(mmax), n_m).astype(np.int64))
        for m in ms:
            for x in np.arange(grid) / grid:
                err = polap_error(g, red, P, float(x), int(m), w, cf, params)
                rows.append({"n": n, "m": int(m), "w": w, "x": float(x), "error": err})
    return rows


def cmd_orbit(cfg):
    from skewlab.skew_dynamics import SkewProduct

    cf, g, params, _ = _preset_pair(cfg.get("pair", "prime"))
    T = SkewProduct(cf, g)
    x, y = float(cfg.get("x", 0.0)), float(cfg.get("y", 0.0))
    rows = []
    for n in _int_list(cfg.get("steps", "1,10,100,1000")):
        xn, yn = T.iterate(n, x, y)
        rows.append({"n": n, "x": xn, "y": yn})
    return rows


def cmd_prime_average(cfg):
    from skewlab.skew_dynamics import Observable, SkewProduct, prime_weighted_average

    cf, g, params, _ = _preset_pair(cfg.get("pair", "prime"))
    T = SkewProduct(cf, g)
    b, c = int(cfg.get("b", 0)), int(cfg.get("c", 1))
    x, y = float(cfg.get("x", 0.0)), float(cfg.get("y", 0.0))
    rows = []
    for N in _int_list(cfg.get("N", "1e5,1e6")):
        avg, theta = prime_weighted_average(T, Observable(b, c), int(N), x, y)
        rows.append({"N": int(N), "b": b, "c": c, "re_avg": avg.real,
                     "im_avg": avg.imag, "theta_ratio": theta})
    return rows


def cmd_residue_average(cfg):
    from skewlab.skew_dynamics import Observable, SkewProduct, reduced_residue_average

    cf, g, params, _ = _preset_pair(cfg.get("pair", "prime"))
    T = SkewProduct(cf, g)
    b, c = int(cfg.get("b", 0)), int(cfg.get("c", 1))
    rows = []
    for n in _int_list(cfg.get("scales", "1,2,3")):
        z = cf.q(n)
        v = reduced_residue_average(T, Observable(b, c), z, z, 0.0, 0.0)
        rows.append({"scale": n, "z": z, "d": z, "re": v.real, "im": v.imag,
                     "modulus": abs(v)})
    return rows


def cmd_huxley(cfg):
    from skewlab.char_sums import huxley_stat_progressions

    rows = []
    for x in _int_list(cfg.get("x", "1e5")):
        x = int(x)
        H = int(cfg.get("H", x))
        q = int(cfg.get("q", 97))
        r = int(cfg.get("r", 5))
        res = huxley_stat_progressions(x, H, q, r)
        rows.append({"stat_name": "huxley_progressions", "x": x, "H": H, "q": q,
                     "r": r, "Hp": "", "value": res["value"],
                     "trivial_scale": res["trivial_scale"],
                     "ratio": _ratio(res["value"], res["trivial_scale"])})
    return rows


def cmd_charsum(cfg):
    from skewlab.char_sums import (build_characters, gauss_sum,
                                   progression_char_stat, windowed_twisted_stat)

    q = int(cfg.get("q", 101))
    stat = cfg.get("stat", "progression")
    rows = []
    tab = build_characters(q)
    if stat == "progression":
        r = int(cfg.get("r", 3))
        for i, chi in enumerate(tab):
            if chi.is_principal():
                continue
            v = progression_char_stat(q, r, chi)
            rows.append({"stat_name": "progression", "x": "", "H": "", "q": q,
                         "r": r, "Hp": "", "value": v,
                         "trivial_scale": math.sqrt(r * q) * math.log(q),
                         "ratio": v / (math.sqrt(r * q) * math.log(q))})
    elif stat == "gauss":
        for i, chi in enumerate(tab):
            if chi.is_primitive():
                v = abs(gauss_sum(chi, int(cfg.get("gauss_x", 1))))
                rows.append({"stat_name": "gauss", "x": "", "H": "", "q": q, "r": "",
                             "Hp": "", "value": v, "trivial_scale": math.sqrt(q),
                             "ratio": v / math.sqrt(q)})
    elif stat == "windowed":
        Hp = int(cfg.get("Hp", max(2, int(q**0.25))))
        nonprincipal = [c for c in tab if not c.is_principal()]
        idx = int(cfg.get("chi_index", 0))
        if not 0 <= idx < len(nonprincipal):
            raise PreconditionError(f"chi_index {idx} out of range: mod {q} has "
                                    f"{len(nonprincipal)} non-principal characters")
        chi = nonprincipal[idx]
        res = windowed_twisted_stat(q, Hp, chi)
        rows.append({"stat_name": "windowed_twisted", "x": "", "H": "", "q": q,
                     "r": "", "Hp": Hp, "value": res["value"],
                     "trivial_scale": res["scale"],
                     "ratio": _ratio(res["value"], res["scale"])})
    else:
        raise PreconditionError(f"unknown charsum stat {stat!r}")
    return rows


def cmd_identities(cfg):
    from skewlab.identities import (buchstab_check, heathbrown_coeff_check,
                                    linnik_check, vaughan_decompose)
    from skewlab.primes import von_mangoldt

    n_max = int(cfg.get("n_max", 2000))
    zs = _int_list(cfg.get("z", "2,5,10"))
    ks = _int_list(cfg.get("k", "1,2"))
    if min(ks, default=1) < 1:
        raise PreconditionError(f"heath-brown needs every k >= 1, got k={min(ks)}")
    seed = int(cfg.get("seed", 0))
    rows = []
    for z in zs:
        worst = 0.0
        for n in range(z + 1, n_max + 1):
            t1, t2, t3, tot = vaughan_decompose(n, z)
            defect = abs(tot.to_float() - von_mangoldt(n))
            worst = max(worst, defect)
        rows.append({"identity": "vaughan", "n_or_range": f"({z},{n_max}]",
                     "params": f"z={z}", "defect": worst})
    for z in zs:
        w = 0.0
        for n in range(2, min(n_max, 2000) + 1):
            lhs, rhs = linnik_check(n, z)
            w = max(w, abs(float(lhs - rhs)))
        rows.append({"identity": "linnik", "n_or_range": f"[2,{min(n_max, 2000)}]",
                     "params": f"z={z}", "defect": w})
    for k in ks:
        k = int(k)
        z = math.ceil(n_max ** (1.0 / k))
        d = heathbrown_coeff_check(k, z, n_max)
        rows.append({"identity": "heath-brown", "n_or_range": f"[1,{n_max}]",
                     "params": f"k={k},z={z}", "defect": d})
    rng = np.random.default_rng(seed)
    w = 0
    for _ in range(int(cfg.get("buchstab_windows", 20))):
        lo = int(rng.integers(1, 10**6 - 10**4))
        length = int(rng.integers(10, 10**4))
        ww = int(rng.integers(2, 50))
        zz = int(rng.integers(ww, 200))
        lhs, rhs = buchstab_check((lo, lo + length), ww, zz)
        w = max(w, abs(lhs - rhs))
    rows.append({"identity": "buchstab", "n_or_range": "random windows",
                 "params": "seeded", "defect": w})
    return rows


def cmd_ms_sum(cfg):
    from skewlab.poly_prime_sums import ShiftedPoly, ms_gap, oscillation_classify

    N = int(cfg.get("N", 10**6))
    if N < 2:  # before N**0.7, which is complex for N < 0
        raise PreconditionError(f"ms-sum needs N >= 2, got N={N}")
    H = int(cfg.get("H", int(N**0.7)))
    r = int(cfg.get("r", 1))
    a = int(cfg.get("a", 0 if r == 1 else 1))
    coeffs = tuple(_parse_list(cfg.get("coeffs", "0"))) if cfg.get("coeffs") else ()
    if coeffs == (0.0,):
        coeffs = ()
    g = ShiftedPoly(N, coeffs)
    eta = float(cfg.get("eta", 0.05))
    gap, budget = ms_gap(N, H, r, a, g, eta)
    cls, witness = oscillation_classify(g, H, N, float(cfg.get("B", 2.0)))
    return [{"N": N, "H": H, "r": r, "a": a, "deg": g.degree, "gap": gap,
             "budget": budget, "ratio": gap / budget if budget else math.inf,
             "class": cls if witness is None else f"{cls}(q={witness})"}]


def cmd_counterexample(cfg):
    from skewlab.presets import counterexample_stages

    st = counterexample_stages(n_stages=int(cfg.get("stages", 3)),
                               include_h=bool(cfg.get("include_h", False)),
                               mu_twist=bool(cfg.get("mu_twist", False)))
    st.solve_all()
    eps = float(cfg.get("eps", 0.05))
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
    if cfg.get("dump"):
        with open(cfg["dump"], "w") as fh:
            fh.write(st.to_json(eps))
    return rows


def cmd_discrepancy(cfg):
    from skewlab.presets import prime_pair
    from skewlab.skew_dynamics import exact_star_discrepancy, star_discrepancy_bound
    from skewlab.dd import frac01_int_mult

    cf, _, _ = prime_pair()
    hi, lo = cf.value_dd()
    K = int(cfg.get("K", 50))
    rows = []
    for N in _int_list(cfg.get("N", "1e3,1e4")):
        N = int(N)
        pts = frac01_int_mult(np.arange(1, N + 1, dtype=np.int64), hi, lo)
        rows.append({"N": N, "K": K, "bound": star_discrepancy_bound(pts, K),
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
        # kernels are serial and reductions have fixed order, so any thread
        # count produces identical bytes; the value is recorded for provenance
        cfg.setdefault("threads", 1)
        for key, low in (("seed", 0), ("threads", 1)):
            v = cfg.get(key, low)
            if type(v) is not int or v < low:
                raise InvalidInputError(f"{key} must be an integer >= {low}, got {v!r}")
        rows = HANDLERS[command](cfg)
        _emit(command, cfg, rows, paths.get("out"))
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
