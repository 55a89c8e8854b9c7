"""Run one skewlab benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload prime_orbits --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; skewlab is imported from its ``src/``.
A run sets the workload up SETUP_REPEATS times in fresh processes (setup_s is
their median), sets it up once more in this process, then runs whole rounds
of its operations: max(1, round(--seconds / ROUND_S)) of them, ROUND_S being
the workload's nominal round time, so the count depends on --seconds only.
Afterwards it reads the peak memory, computes the expected values with the
benchmark's own arithmetic and checks every output.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb).
--trace 1 runs an untraced round, then max(1, rounds // 2) pairs of a traced
and an untraced round, and prints the per-layer metrics of the traced rounds,
their wall time and that of the warm untraced rounds (all but the first)
beside it, so the tracing overhead is visible.

The last line of standard output is the JSON result.  Rejected outputs and
failed operations are listed on standard error.  ``correct`` is false when
any operation raised or had its output rejected, except for an operation
with a known fault whose output fails exactly in the documented way.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = BENCH.parent / "BENCHMARK.json"  # metric names and units
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("prime_orbits", "prime_windows", "characters", "exact_constructions")


class Failure:
    """An operation that raised instead of returning an output."""

    def __init__(self, exc):
        self.reason = f"{type(exc).__name__}: {exc}"


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload's inputs being ready."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(BENCH)]!r}; "
            f"import workloads; workloads.WORKLOADS[{workload!r}]({seed})")
    t0 = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_round(ops, results) -> float:
    """Run every operation once; return the seconds spent inside skewlab calls."""
    busy = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.compute()
        except Exception as exc:  # a program fault fails this operation only
            busy += time.perf_counter() - t0
            results.append((op, Failure(exc)))
            continue
        busy += time.perf_counter() - t0
        try:
            results.append((op, op.keep(out) if op.keep else out))
        except Exception as exc:  # output of the wrong shape or type
            results.append((op, Failure(exc)))
    return busy


def verdict(results, oracle):
    """(failed, rejected): operations that failed, and those that did not fail as documented."""
    failed = rejected = 0
    for op, kept in results:
        known = False
        if isinstance(kept, Failure):
            reason = kept.reason
        else:
            reason = op.check(kept, oracle)
            known = (reason is not None and op.fault is not None
                     and op.fault.check(kept, oracle) is None)
        if reason is not None:
            failed += 1
            rejected += not known
            note = f" [known fault: {op.fault.what}]" if known else ""
            print(f"FAILED {op.label}: {reason}{note}", file=sys.stderr)
    return failed, rejected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "skewlab" / "__init__.py").is_file():
        print(f"run.py: no skewlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # the numpy kernels are the measured path; numba is never imported.
    # One core per workload: BLAS stays single-threaded (children inherit this).
    os.environ.update(SKEWLAB_BACKEND="numpy", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tracer
    import workloads

    setup_s = statistics.median(time_setup(args.workload, args.seed)
                                for _ in range(SETUP_REPEATS))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    import skewlab
    if Path(skewlab.__file__).resolve().parent != (SRC / "skewlab").resolve():
        print(f"run.py: skewlab imported from {skewlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl.prepare()
    ops = wl.operations()

    rounds = max(1, round(args.seconds / wl.ROUND_S))
    # --trace 1: the first round of a process is the cold one, so the
    # overhead compares traced rounds with the warm untraced rounds only.
    plan = [False] + [True, False] * max(1, rounds // 2) if args.trace else [False] * rounds
    results, walls, traced = [], [], []
    tr = tracer.Tracer()
    for traced_round in plan:
        if traced_round:
            tr.reset()
            tr.install()
            try:
                busy = run_round(ops, results)
            finally:
                tr.uninstall()
            traced.append(tr.metrics(busy))
        else:
            walls.append(run_round(ops, results))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, rejected = verdict(results, wl.oracle())
    if "numba" in sys.modules:
        print("run.py: numba was imported", file=sys.stderr)
        return 2

    if args.trace:
        values = tracer.median_metrics(traced)
        values["trace.untraced_wall_s"] = statistics.median(walls[1:])
        values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_rss_mb}
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    times = " ".join(f"{w:.3f}" for w in walls)
    if traced:
        times += " untraced, " + " ".join(f"{t['trace.wall_s']:.3f}" for t in traced) + " traced"
    print(f"{args.workload}: rounds {times} s; {len(results)} operations, {failed} failed",
          file=sys.stderr)
    print(json.dumps({"correct": rejected == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
