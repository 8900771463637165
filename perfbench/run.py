"""Benchmark of the ``repro`` analysis stack: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--session K]

Run from the root of a checkout.  The run sets up the workload's inputs
from the seed three times, each in its own process, then measures
repetitions of the workload's ``repro`` command in one more process
for ``S`` seconds, checks the outputs, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``events_per_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` they are the per-layer
ones, with the traced and untraced throughput side by side.  Details
(reference-loop timings, input make-up, failed checks) go to standard
error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import calibrated, reference_ms  # noqa: E402
from checks import check_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 90
#: Budget for the measured process beyond its ``--seconds``: the last
#: whole repetition, the reference loops and the reference runs.
MEASURE_SLACK_S = 100
#: Pinned for every process the benchmark starts.
HASH_SEED = "0"

def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(argv, env, timeout) -> subprocess.CompletedProcess:
    """Run one benchmark process to its end.

    The process leads its own process group, so that on a timeout or an
    interrupt the repetitions it forked are killed with it.
    """
    process = subprocess.Popen(
        [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=timeout)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return subprocess.CompletedProcess(process.args, process.returncode, out, err)


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def set_up(args, work: str, env: dict):
    """Run the set-ups; return (inputs directory, [(wall, calibrated)], sim layers)."""
    setups, sims, expected = [], [], None
    for number in range(SETUPS):
        out = os.path.join(work, f"setup-{number}")
        reference = reference_ms()
        started = time.perf_counter()
        done = run_child(
            [os.path.join(HERE, "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--session", str(args.session),
             "--out", out, "--trace", str(args.trace)],
            env, SETUP_TIMEOUT_S,
        )
        wall = time.perf_counter() - started
        reference = (reference + reference_ms()) / 2
        setups.append((wall, calibrated(wall, reference)))
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        if args.trace:
            sims.append(last_json(done.stdout))
        with open(os.path.join(out, "expected.json"), encoding="utf-8") as handle:
            facts = json.load(handle)
        if expected is not None and facts != expected:
            raise RuntimeError("set-ups from one seed produced different inputs")
        expected = facts
        if number:
            shutil.rmtree(os.path.join(work, f"setup-{number - 1}"))
    return out, setups, sims


def median_of(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(events: int, untraced: list, setups: list) -> dict:
    return {
        "events_per_s": events / median_of([r["calibrated_seconds"] for r in untraced]),
        "peak_rss_mb": median_of([r["rss_mb"] for r in untraced]),
        "setup_s": median_of([calibrated for _, calibrated in setups]),
    }


def per_layer_metrics(events: int, untraced: list, traced: list, sims: list) -> dict:
    """Medians over the traced repetitions; ``sim.*`` adds the set-up's."""
    names = traced[0]["layers"]
    layers = {name: median_of([r["layers"][name] for r in traced]) for name in names}
    for name in ("sim.run_s", "sim.events"):
        layers[name] += median_of([sim[name] for sim in sims])
    plain = events / median_of([r["calibrated_seconds"] for r in untraced])
    with_tracing = events / median_of([r["calibrated_seconds"] for r in traced])
    layers["tracing.events_per_s"] = with_tracing
    layers["tracing.untraced_events_per_s"] = plain
    layers["tracing.overhead_pct"] = (plain / with_tracing - 1.0) * 100.0
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--session", type=int, default=0,
        help="tracing session of the workload's fleet (see prepare.make_corpus); "
             "another session gives new traces, for checking a claim",
    )
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a repro checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        inputs, setups, sims = set_up(args, work, env)
        done = run_child(
            [os.path.join(HERE, "measure.py"), "--workload", args.workload, "--inputs", inputs,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, args.seconds + MEASURE_SLACK_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"measurement failed:\n{done.stderr}")
        measured = last_json(done.stdout)
        with open(os.path.join(inputs, "expected.json"), encoding="utf-8") as handle:
            expected = json.load(handle)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    failures = check_run(workload, expected, measured)
    repetitions = measured["repetitions"]
    if failures:
        for failure in failures:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
        if "error" in repetitions[-1]:
            return 1
    untraced = [r for r in repetitions if not r["traced"]]
    traced = [r for r in repetitions if r["traced"]]
    events = repetitions[0]["events"]
    if args.trace:
        metrics = per_layer_metrics(events, untraced, traced, sims)
    else:
        metrics = end_to_end_metrics(events, untraced, setups)
    units = unit_table(root)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(repetitions),
        "repetition_seconds": [round(r["seconds"], 4) for r in repetitions],
        "repetition_reference_ms": [round(r["reference_ms"], 3) for r in repetitions],
        "wall_events_per_s": events / median_of([r["seconds"] for r in untraced]),
        "wall_setup_s": median_of([wall for wall, _ in setups]),
        "setup_seconds": [round(wall, 4) for wall, _ in setups],
        "reference_loop_ms": measured["reference_loop_ms"],
        "inputs": {key: expected[key] for key in ("streams", "events", "instances", "longest_thread", "cells") if key in expected},
        "missing_hooks": traced[0].get("missing_hooks", []) if traced else [],
    }
    print("perfbench-detail " + json.dumps(detail), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in repetitions),
        "failed": sum(r["failed"] for r in repetitions),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def unit_table(root: str) -> dict:
    """Metric name to unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
