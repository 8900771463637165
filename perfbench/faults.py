"""Share of one repetition spent in the two known window-query faults.

    python3 perfbench/faults.py --workload NAME [--seed 7]

Run from the root of a checkout.  Sets the workload up once, runs one
repetition of its ``repro`` command under ``cProfile`` in a forked
child, and prints the share of the profiled time spent inside (calls
included)

* ``span``: ``TraceStream.span``, which ``TraceStream.events_of_thread``
  recomputes, O(stream length), on every windowed call;
* ``reach-back``: ``_ThreadIndex.in_window`` and
  ``ColumnarTraceStream.thread_event_indices``, whose scan back through
  every earlier event of the thread has no early exit.

``cProfile`` slows pure-Python calls more than the loops inside them,
so the shares are approximate; they are the README's reference figures.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import forked, repetition  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

FAULTS = {
    "span": (("stream.py", "span"),),
    "reach-back": (("stream.py", "in_window"), ("binary.py", "thread_event_indices")),
}


def profiled(workload, argv, store_initial, store) -> dict:
    profile = cProfile.Profile()
    profile.enable()
    repetition(workload, argv, store_initial, store, False, False)
    profile.disable()
    stats = pstats.Stats(profile).stats
    total = sum(entry[2] for entry in stats.values())
    shares = {}
    for fault, functions in FAULTS.items():
        inside = sum(
            entry[3]
            for (filename, _, name), entry in stats.items()
            if (os.path.basename(filename), name) in functions and "repro" in filename
        )
        shares[fault] = inside / total
    return {"profiled_s": total, **shares}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    work = os.path.join(os.getcwd(), ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix="faults-", dir=work)
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", inputs],
            check=True, env=dict(os.environ, PYTHONPATH=sys.path[0]),
        )
        import repro.cli  # noqa: F401

        store_initial = store = None
        if workload.uses_store:
            store_initial = os.path.join(inputs, "store-initial")
            store = os.path.join(inputs, "store")
        argv = workload.argv(inputs, store)
        print(forked(profiled, workload, argv, store_initial, store))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
