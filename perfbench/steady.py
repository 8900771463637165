"""Steadiness mode: do two sets of runs of one commit agree?

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--sets 2]
                                [--first-seed 1] [--seconds S]

Runs ``run.py`` ``--runs`` times per set on each workload, one seed per
run (``--first-seed``, ``--first-seed + 1``, ...; the same seeds in
every set).  With two sets the runs interleave, and which set goes first
alternates, so drift of the machine falls on both alike.  For each
end-to-end metric and set it prints the median and quartiles, the
spread (interquartile distance over the median) against the metric's
bound from ``BENCHMARK.json``, and whether the second set's median is
within the bound of the first.  It also prints the reference-loop
medians each run recorded, so machine drift can be told apart from a
change in the program.  Exits 1 when any run fails or any spread other
than ``setup_s``'s, or any agreement, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETAIL = "perfbench-detail "


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    for line in done.stderr.splitlines():
        if line.startswith(DETAIL):
            result["detail"] = json.loads(line[len(DETAIL):])
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def report(workload: str, sets: list, metrics: list) -> bool:
    steady = True
    print(f"\n== {workload}")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for number, runs in enumerate(sets, start=1):
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            medians.append(median)
            exempt = name == "setup_s"
            ok = exempt or spread <= bound
            steady &= ok
            print(
                f"  {name:14s} set {number}: median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                f"  spread {spread:6.2%} / bound {bound:.0%}"
                f"{'' if ok else '  TOO WIDE'}{'  (exempt)' if exempt else ''}"
            )
        if len(medians) == 2:
            change = worse_by(metric, medians[0], medians[1])
            ok = change <= bound
            steady &= ok
            print(f"  {name:14s} set 2 worse than set 1 by {change:+.2%}: {'agree' if ok else 'DISAGREE'}")
    for number, runs in enumerate(sets, start=1):
        shares = {run["failed"] / run["attempted"] for run in runs}
        loops = [value for run in runs for value in run["detail"]["reference_loop_ms"]]
        low, mid, high = quartiles(loops)
        print(
            f"  set {number}: failed share {sorted(shares)}; reference loop ms "
            f"q1 {low:.2f} median {mid:.2f} q3 {high:.2f}; "
            f"repetitions per run {[run['detail']['repetitions'] for run in runs]}"
        )
        steady &= all(run["correct"] for run in runs) and len(shares) == 1
    return steady


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs per set")

    steady = True
    for workload in args.workload or names:
        sets = [[] for _ in range(args.sets)]
        for index in range(args.runs):
            seed = args.first_seed + index
            order = range(args.sets) if index % 2 == 0 else reversed(range(args.sets))
            for number in order:
                sets[number].append(one_run(workload, seed, args.seconds))
        steady &= report(workload, sets, declared["end_to_end"])
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
