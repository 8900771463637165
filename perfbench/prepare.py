"""Set-up process: build one workload's inputs from a seed.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR
                                 [--session S] [--trace 1]

Writes under ``DIR``:

* ``corpus/`` — the trace corpus the timed command analyses (study
  workloads), and ``other/`` — the same corpus in the other encoding
  when the workload checks that both give identical tables;
* ``store-initial/`` — the artifact store prewarmed on the old traces
  (store workload); every repetition starts from a copy of it;
* ``expected.json`` — facts recomputed by this file's own code from the
  generated corpus, never by the analysis under test: event and
  instance counts, Table 1 contrast classes and ``D_scn``.

The caller times the whole process.  With ``--trace 1`` the last line
of standard output is a JSON object with the simulator's time and
event count, which the traced run reports as ``sim.*``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import sys
from collections import Counter, defaultdict
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def corpus_facts(corpus, thresholds):
    """Counts, Table 1 classes and ``D_scn`` of an in-memory corpus.

    ``thresholds`` maps a scenario to ``(T_fast, T_slow)``.  An instance
    is fast below ``T_fast`` and slow above ``T_slow``.  ``D_scn`` sums,
    for every instance, the costs of its initiating thread's wait and
    running events that overlap the window ``[t0, t1)``.
    """
    table1 = defaultdict(lambda: [0, 0, 0])
    d_scn = 0
    longest = 0
    for stream in corpus:
        spans_by_tid = defaultdict(list)
        tids = Counter()
        for event in stream.events:
            tids[event.tid] += 1
            if event.kind.value in ("wait", "running"):
                spans_by_tid[event.tid].append((event.timestamp, event.timestamp + event.cost))
        longest = max(longest, max(tids.values(), default=0))
        # Per thread: sorted starts and the running maximum of ends, so
        # the scan back from a window stops once nothing reaches it.
        index = {}
        for tid, spans in spans_by_tid.items():
            spans.sort()
            reach, running = [], 0
            for _, end in spans:
                running = max(running, end)
                reach.append(running)
            index[tid] = ([start for start, _ in spans], spans, reach)
        for instance in stream.instances:
            t_fast, t_slow = thresholds[instance.scenario]
            row = table1[instance.scenario]
            row[0] += 1
            duration = instance.t1 - instance.t0
            if duration < t_fast:
                row[1] += 1
            elif duration > t_slow:
                row[2] += 1
            if instance.tid not in index:
                continue
            starts, spans, reach = index[instance.tid]
            position = bisect.bisect_left(starts, instance.t1) - 1
            while position >= 0 and reach[position] > instance.t0:
                start, end = spans[position]
                if end > instance.t0:
                    d_scn += end - start
                position -= 1
    return {
        "streams": len(corpus),
        "events": sum(len(stream.events) for stream in corpus),
        "instances": sum(row[0] for row in table1.values()),
        "longest_thread": longest,
        "table1": {name: row for name, row in sorted(table1.items())},
        "d_scn": d_scn,
    }


def make_corpus(shape: dict, seed: int, session: int = 0):
    """One workload's corpus: a fixed fleet of machines, one tracing session.

    Slot ``i`` of the fleet always has the same machine configuration,
    scenario mix and load.  ``session`` seeds what tracing the fleet
    again would change: the simulation's own randomness and the
    workloads' start offsets.  ``seed`` then re-encodes the session's
    traces (see :func:`recode`), which changes every byte the program
    reads but not the work it does.

    The seed does not pick the session because, at this commit, a new
    session changes the analysis cost by far more than the machine's
    noise: the window-query defects make cost grow with stream length
    times wait-graph size, and graph sizes vary widely between
    sessions.  ``run.py --session N`` gives a new session, for checking
    a claim on traces it was not tuned on.
    """
    from repro.sim.corpus import CorpusConfig, build_workloads, draw_machine_config
    from repro.sim.machine import Machine
    from repro.sim.workloads.background import install_standard_background
    from repro.sim.workloads.registry import SCENARIO_NAMES
    from repro.units import MILLISECONDS, SECONDS

    repeats = shape["repeats"]
    config = CorpusConfig(repeats_range=(repeats, repeats))
    horizon_us = round(repeats * 1.5 * (config.think_median_us + 200 * MILLISECONDS)) + 2 * SECONDS
    corpus = []
    for index in range(shape["streams"]):
        slot = random.Random(f"perfbench/fleet/{index}")
        machine_config = draw_machine_config(slot)
        names = shape.get("scenarios") or slot.sample(sorted(SCENARIO_NAMES), shape["mix"])
        intensity = slot.uniform(0.15, 0.95)
        tracing = random.Random(f"perfbench/session/{session}/{index}")
        machine = Machine(
            f"stream{index:05d}", replace(machine_config, seed=tracing.randrange(1 << 30))
        )
        for workload in build_workloads(tracing, names, config, horizon_us, intensity):
            workload.install(machine)
        install_standard_background(machine, horizon_us, av_aggressiveness=intensity)
        stream = machine.run_and_trace(until=horizon_us + 3 * SECONDS)
        corpus.append(recode(stream, random.Random(f"perfbench/recode/{seed}/{index}")))
    return corpus


def recode(stream, rng: random.Random):
    """The same trace with shifted timestamps and renumbered threads.

    Every event moves by one offset and every thread gets another tid,
    so the relations the analyses use (order, overlap, who wakes whom)
    are unchanged while the encoded bytes and content hashes differ.
    """
    from repro.trace import Event, ThreadInfo, TraceStream

    shift = rng.randrange(1 << 32)
    tids = sorted(
        {event.tid for event in stream.events}
        | {event.wtid for event in stream.events if event.wtid is not None}
        | {instance.tid for instance in stream.instances}
        | set(stream.threads)
    )
    renamed = dict(zip(tids, rng.sample(range(1, 4 * len(tids) + 1), len(tids))))
    events = [
        Event(
            kind=event.kind,
            stack=event.stack,
            timestamp=event.timestamp + shift,
            cost=event.cost,
            tid=renamed[event.tid],
            seq=event.seq,
            wtid=None if event.wtid is None else renamed[event.wtid],
            resource=event.resource,
        )
        for event in stream.events
    ]
    threads = [
        ThreadInfo(tid=renamed[info.tid], process=info.process, name=info.name)
        for info in stream.threads.values()
    ]
    recoded = TraceStream(stream.stream_id, events, threads)
    for instance in stream.instances:
        recoded.add_instance(
            instance.scenario, renamed[instance.tid], instance.t0 + shift, instance.t1 + shift
        )
    return recoded


def prepare_study(workload, seed: int, session: int, out: str) -> dict:
    from repro.pipeline import prewarm_store
    from repro.sim.workloads.registry import SCENARIO_SPECS
    from repro.trace import dump_corpus

    corpus = make_corpus(workload.corpus, seed, session)
    paths = dump_corpus(corpus, os.path.join(out, "corpus"), format=workload.format)
    if workload.cross_format:
        other = "rtb" if workload.format == "jsonl" else "jsonl"
        dump_corpus(corpus, os.path.join(out, "other"), format=other)
    thresholds = {name: (spec.t_fast, spec.t_slow) for name, spec in SCENARIO_SPECS.items()}
    facts = corpus_facts(corpus, thresholds)
    if workload.uses_store:
        # The same fleet slots are old in every seed's corpus.
        old = paths[: round(len(paths) * workload.prewarm_share)]
        prewarm_store(old, os.path.join(out, "store-initial"), workers=1)
        facts["store_old"] = len(old)
        facts["store_new"] = len(paths) - len(old)
    return facts


def prepare_explore() -> dict:
    from repro.sim.explore import ExploreConfig
    from workloads import (
        EXPLORE_INTENSITIES,
        EXPLORE_POLICIES,
        EXPLORE_REPEATS,
        EXPLORE_SCENARIOS,
        EXPLORE_SEEDS,
    )

    config = ExploreConfig(
        scenarios=EXPLORE_SCENARIOS,
        policies=EXPLORE_POLICIES,
        seeds=EXPLORE_SEEDS,
        intensities=EXPLORE_INTENSITIES,
        repeats=EXPLORE_REPEATS,
    )
    config.validate()
    return {
        "cells": len(config.cells()),
        "instances_per_cell": EXPLORE_REPEATS * len(EXPLORE_INTENSITIES),
        "pathologies": list(EXPLORE_SCENARIOS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    tracer = Tracer().install({"sim"}) if args.trace else None
    os.makedirs(args.out, exist_ok=True)
    if workload.kind == "explore":
        facts = prepare_explore()
    else:
        facts = prepare_study(workload, args.seed, args.session, args.out)
    facts["workload"] = workload.name
    facts["seed"] = args.seed
    facts["session"] = args.session
    with open(os.path.join(args.out, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(facts, handle, indent=1, sort_keys=True)
    if tracer is not None:
        layers = tracer.layer_metrics()
        print(json.dumps({name: layers[name] for name in ("sim.run_s", "sim.events")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
