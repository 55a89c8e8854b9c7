"""Run a workload on several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload characters --seeds 1-10 [--trace 1]

Each run's JSON line is written to perfbench/results/<workload>[.trace].jsonl
(ignored by git), replacing the lines of an earlier invocation.  The summary
gives, per metric, the median, the quartiles from
statistics.quantiles(values, n=4) and the quartile distance as a share of
the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(lines):
    print(f"{len(lines)} runs; attempted {sorted({d['attempted'] for d in lines})}, "
          f"failed {sorted({d['failed'] for d in lines})}, "
          f"all correct: {all(d['correct'] for d in lines)}")
    for name in lines[0]["metrics"]:
        values = [d["metrics"][name]["value"] for d in lines]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else 0.0
        print(f"  {name:48s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"iqr/median {share:.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = RESULTS / f"{args.workload}{'.trace' if args.trace else ''}.jsonl"
    RESULTS.mkdir(exist_ok=True)
    out.write_text("")
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        run = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                             timeout=300, check=True)
        sys.stderr.write(run.stderr.splitlines()[-1] + "\n")
        with out.open("a") as fh:
            fh.write(run.stdout.splitlines()[-1] + "\n")
    summarize([json.loads(line) for line in out.read_text().splitlines()])


if __name__ == "__main__":
    main()
