"""Measured process: time repetitions of one workload's ``repro`` command.

    python3 perfbench/measure.py --workload NAME --inputs DIR --seconds S --trace 0|1

The process imports ``repro`` once and then, for every repetition,
forks a child that starts in exactly the state a fresh ``repro``
process has after its imports: module caches cold, and for the store
workload the store reset to its set-up state.  The child times the span
from inputs on disk to the rendered result, runs ``repro.cli.main``
with its output captured, and reports its time, peak resident memory
and what the output checks need.  Interpreter start-up and imports are
outside the timed span.

Repetitions continue until ``S`` seconds have passed, always whole.  In
traced mode untraced and traced repetitions alternate, so the tracing
overhead is measured under the same conditions.  Each timed span is
bracketed by short runs of the reference loop of ``calibrate.py``,
which give its calibrated time, and the loop is also timed at length
before and after all the repetitions, so a reader can tell machine
drift from a change in the program.  The last line of standard output
is one JSON object with all of it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import calibrated, reference_ms  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Reference-loop samples taken before and after all the repetitions.
RUN_REFERENCE_SAMPLES = 45


class Capture:
    """Keeps what the command's public entry points returned.

    A thin wrapper, installed in every repetition, records the study or
    exploration result and the run-health, store and map-phase objects
    the command handed to it.  The checks read these; the timed span
    pays one extra call.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.calls = {}
        self.sim_events = 0

    def install(self) -> "Capture":
        if self.kind == "study":
            import repro.pipeline

            self._record(repro.pipeline, "parallel_study")
        else:
            import repro.sim.explore
            from repro.sim.machine import Machine

            for name in ("explore_schedules", "verify_all_pathologies", "negative_control"):
                self._record(repro.sim.explore, name)
            original = Machine.run_and_trace
            capture = self

            def run_and_trace(machine, *args, **kwargs):
                stream = original(machine, *args, **kwargs)
                capture.sim_events += len(stream.events)
                return stream

            Machine.run_and_trace = run_and_trace
        return self

    def _record(self, module, name: str) -> None:
        original = getattr(module, name)
        calls = self.calls

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name] = (args, kwargs, result)
            return result

        setattr(module, name, recorded)


def study_facts(capture: Capture) -> dict:
    """What the study checks need from one repetition."""
    args, kwargs, study = capture.calls["parallel_study"]
    health, stats, store = kwargs.get("health"), kwargs.get("stats"), kwargs.get("store")
    facts = {
        "streams": stats.streams,
        "events": stats.events,
        "analyzed": health.analyzed,
        "trace_failures": [failure.action for failure in health.failures],
        "d_scn": study.impact.d_scn,
        "d_wait": study.impact.d_wait,
        "d_waitdist": study.impact.d_waitdist,
        "pattern_costs": {
            name: [[pattern.cost, pattern.count] for pattern in item.report.patterns]
            for name, item in study.scenarios.items()
        },
    }
    if store is not None:
        facts["store_hits"] = store.hits
        facts["store_misses"] = store.misses
    return facts


def explore_facts(capture: Capture) -> dict:
    """What the exploration checks need from one repetition."""
    report = capture.calls["explore_schedules"][2]
    verdicts = capture.calls["verify_all_pathologies"][2]
    return {
        "cells": [[cell.scenario, cell.policy, cell.seed, cell.instances] for cell in report.cells],
        "verdicts": [[verdict.scenario, verdict.passed] for verdict in verdicts],
        "negative_control_clean": capture.calls["negative_control"][2],
        "events": capture.sim_events,
    }


def repetition(workload, argv, store_initial, store, traced: bool, want_facts: bool) -> dict:
    """Body of one forked repetition; returns what the parent needs."""
    if store_initial is not None:
        shutil.copytree(store_initial, store)
    from repro import cli

    # The tracer wraps the program first, so the capture's wrappers sit
    # outside it and a traced repetition still times the real entry points.
    tracer = Tracer().install() if traced else None
    capture = Capture(workload.kind).install()
    out, err = io.StringIO(), io.StringIO()
    reference_before = reference_ms()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - started
    reference = (reference_before + reference_ms()) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    text = out.getvalue()
    result = {
        "seconds": seconds,
        "calibrated_seconds": calibrated(seconds, reference),
        "reference_ms": reference,
        "rss_mb": rss_mb,
        "exit_code": code,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "traced": traced,
    }
    extract = study_facts if workload.kind == "study" else explore_facts
    facts = extract(capture)
    # Counts every repetition must repeat exactly; the rest only once.
    result["events"] = facts["events"]
    result["attempted"], result["failed"] = operation_counts(workload, facts)
    if want_facts:
        result["facts"] = facts
        result["stdout"] = text
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing_hooks"] = tracer.missing
    return result


def operation_counts(workload, facts: dict):
    """(attempted, failed) operations of one repetition.

    A study attempts one analysis per trace; a trace skipped, salvaged
    or quarantined failed.  An exploration attempts one operation per
    grid cell and per oracle verdict, plus the negative control; a
    verdict that missed its planted cause, or a contaminated control,
    failed.
    """
    if workload.kind == "study":
        failures = facts["trace_failures"]
        dropped = sum(1 for action in failures if action != "salvaged")
        return facts["analyzed"] + dropped, len(failures)
    failed = sum(1 for _, passed in facts["verdicts"] if not passed)
    failed += 0 if facts["negative_control_clean"] else 1
    return len(facts["cells"]) + len(facts["verdicts"]) + 1, failed


def forked(body, *args) -> dict:
    """Run ``body(*args)`` in a forked child; return its JSON-able result."""
    gc.collect()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the parent's code
        os.close(read_end)
        try:
            payload = body(*args)
        except BaseException:
            # Any failure, SystemExit included, goes to the parent as a
            # result: the child must never return into the parent's code.
            payload = {"error": traceback.format_exc()}
        try:
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(json.dumps(payload).encode("utf-8"))
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"repetition process ended without a result (status {status})"}
    return json.loads(data)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    # Every module a repetition may import is imported here, outside the
    # timed spans, so traced and untraced repetitions start alike.
    import repro.cli  # noqa: F401
    for module_name in sorted({target[1] for target in TARGETS}):
        importlib.import_module(module_name)

    store_initial = store = None
    if workload.uses_store:
        store_initial = os.path.join(args.inputs, "store-initial")
        store = os.path.join(args.inputs, "store")
    argv = workload.argv(args.inputs, store)

    reference_before = reference_ms(RUN_REFERENCE_SAMPLES)
    repetitions = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(repetitions) % 2 == 1
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        result = forked(
            repetition, workload, argv, store_initial, store, traced, not repetitions
        )
        repetitions.append(result)
        if "error" in result:
            break
        paired = not args.trace or len(repetitions) % 2 == 0
        if paired and time.perf_counter() >= deadline:
            break
    reference_after = reference_ms(RUN_REFERENCE_SAMPLES)

    references = []
    if "error" not in repetitions[-1]:
        for label, reference_argv in workload.reference_argvs(args.inputs):
            outcome = forked(repetition, workload, reference_argv, None, None, False, True)
            outcome["label"] = label
            references.append(outcome)
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)

    print(json.dumps({
        "repetitions": repetitions,
        "references": references,
        "reference_loop_ms": [reference_before, reference_after],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
