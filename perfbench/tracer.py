"""Span tracer that wraps skewlab's public functions from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper
that keeps a span stack, so a layer's self time is its span's duration minus
the time of the spans it called.  A function that other modules import by
name (``frac01_int_mult``, ``factorize``, ...) is replaced in every loaded
skewlab module that holds it.  ``uninstall()`` puts the originals back, so
untraced rounds run the program unchanged.
"""

import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _count_elems(tracer, name, args, out):
    tracer.counters[name + ".elems"] += len(args[0])


def _count_primes(tracer, name, args, out):
    tracer.counters["primes.primes_out"] += len(out)
    tracer.ranges.setdefault((int(args[1]), int(args[2])), out)


def _count_character(tracer, name, args, out):
    chi = args[0]
    tracer.characters.add((chi.q, chi.ks))


def _count_window(tracer, name, args, out):
    tracer.counters["counterexample.window_points"] += len(out["window"])


# (module, attribute, span name, counter); "Class.method" patches the class.
SPANS = [
    ("primes", "PrimeSource.primes_in", "primes.primes_in", _count_primes),
    ("primes", "factorize", "primes.factorize", None),
    ("primes", "mobius_upto", "primes.mobius_upto", None),
    ("dd", "frac01_int_mult", "dd.frac01_int_mult", _count_elems),
    ("dd", "frac01_poly_dd", "dd.frac01_poly_dd", _count_elems),
    ("skew_dynamics", "prime_weighted_average", "skew_dynamics.prime_weighted_average", None),
    ("poly_prime_sums", "prime_phase_sum", "poly_prime_sums.prime_phase_sum", None),
    ("poly_prime_sums", "integer_phase_main_term", "poly_prime_sums.integer_phase_main_term", None),
    ("char_sums", "huxley_stat_progressions", "char_sums.huxley_stat_progressions", None),
    ("char_sums", "huxley_stat_windows", "char_sums.huxley_stat_windows", None),
    ("char_sums", "CharacterTable.__init__", "char_sums.table_init", None),
    ("char_sums", "CharacterTable.orthogonality_defect", "char_sums.orthogonality_defect", None),
    ("char_sums", "Character.values", "char_sums.values", _count_character),
    ("char_sums", "Character.conductor", "char_sums.conductor", None),
    ("char_sums", "gauss_sum", "char_sums.gauss_sum", None),
    ("char_sums", "progression_char_stat", "char_sums.progression_char_stat", None),
    ("char_sums", "windowed_twisted_stat", "char_sums.windowed_twisted_stat", None),
    ("identities", "vaughan_decompose", "identities.vaughan_decompose", None),
    ("identities", "linnik_check", "identities.linnik_check", None),
    ("identities", "heathbrown_coeff_check", "identities.heathbrown_coeff_check", None),
    ("identities", "buchstab_check", "identities.buchstab_check", None),
    ("counterexample", "StageConstruction.solve_stage", "counterexample.solve_stage", _count_window),
    ("counterexample", "StageConstruction.check_invariants", "counterexample.check_invariants", None),
    ("counterexample", "StageConstruction.verify_phi", "counterexample.verify_phi", None),
    ("counterexample", "StageConstruction.bump_average", "counterexample.bump_average", None),
]

# Called about a million times per round: counted, not timed.
COUNTED = [("counterexample", "RampFunction.eval_frac", "counterexample.eval_frac")]

# Counters that a round may leave at zero when it never reaches their layer.
COUNTERS = ("primes.primes_out", "dd.frac01_int_mult.elems", "dd.frac01_poly_dd.elems",
            "counterexample.window_points")


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.stack = []  # per open span: time spent in its child spans
        self.top_s = 0.0  # time inside outermost spans
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self.ranges = {}  # (lo, hi) asked of primes_in -> one returned array
        self.characters = set()  # (q, ks) of every character whose values were built

    def _span(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer.self_s[name] += dur - stack.pop()
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += dur
                else:
                    tracer.top_s += dur
            if count is not None:
                count(tracer, name, args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for mod in {spec[0] for spec in SPANS + COUNTED}:
            importlib.import_module("skewlab." + mod)
        modules = [m for n, m in sys.modules.items() if n.startswith("skewlab.") and m is not None]
        wrappers = [(mod, attr, self._span(name, _lookup(mod, attr), count))
                    for mod, attr, name, count in SPANS]
        wrappers += [(mod, attr, self._counted(name, _lookup(mod, attr)))
                     for mod, attr, name in COUNTED]
        for mod, attr, wrapper in wrappers:
            owner = sys.modules["skewlab." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patches.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, wrapper)
                continue
            orig = getattr(owner, attr)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches = []

    def metrics(self, compute_s: float) -> dict:
        """Per-layer numbers of one traced round whose timed compute took compute_s."""
        out = {}
        for _, _, name, _ in SPANS:
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".calls"] = self.calls[name]
        for _, _, name in COUNTED:
            out[name + ".calls"] = self.calls[name]
        out.update(self.counters)
        distinct = 0
        if self.ranges:
            distinct = len(np.unique(np.concatenate(list(self.ranges.values()))))
        out["primes.resieve_ratio"] = out["primes.primes_out"] / distinct if distinct else 0.0
        out["char_sums.tables"] = self.calls["char_sums.table_init"]
        n_chars = len(self.characters)
        out["char_sums.values_per_character"] = (
            self.calls["char_sums.values"] / n_chars if n_chars else 0.0)
        out["trace.unattributed_s"] = compute_s - self.top_s
        out["trace.wall_s"] = compute_s
        return out


def _lookup(mod, attr):
    obj = sys.modules["skewlab." + mod]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def median_metrics(rounds: list) -> dict:
    """Per-metric median over the traced rounds of one run."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
