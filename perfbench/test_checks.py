"""Each output check passes on a consistent result and fails on a perturbed one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from prepare import corpus_facts  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STDOUT = """Impact analysis (section 5.1)
Metric             Value
-----------------  -----
IA_wait            51.1%

Tables 1-3 combined
Scenario            #Inst  fast  slow  Driver  ITC    TTC    #Pat  top10%  top30%
------------------  -----  ----  ----  ------  -----  -----  ----  ------  ------
MenuDisplay         5      2     1     89.9%   95.8%  96.7%  2     33.3%   99.0%
WebPageNavigation   4      1     2     58.1%   84.6%  89.5%  1     89.2%   99.3%

Table 4 - Driver types in top-10 patterns
"""

EXPECTED = {
    "streams": 1,
    "events": 40,
    "instances": 9,
    "table1": {"MenuDisplay": [5, 2, 1], "WebPageNavigation": [4, 1, 2]},
    "d_scn": 1234,
    "store_old": 9,
    "store_new": 1,
}

FACTS = {
    "streams": 1,
    "events": 40,
    "d_scn": 1234,
    "d_wait": 900,
    "d_waitdist": 600,
    "pattern_costs": {"MenuDisplay": [[900, 3], [500, 5]], "WebPageNavigation": [[70, 1]]},
    "store_hits": 9,
    "store_misses": 1,
}


def run_checks(facts=FACTS, stdout=STDOUT, expected=EXPECTED):
    workload = WORKLOADS["study-store-incremental"]
    repetition = {
        "exit_code": 0, "digest": "d", "events": 40, "attempted": 1, "failed": 0,
        "facts": facts, "stdout": stdout,
    }
    measured = {"repetitions": [repetition, dict(repetition)], "references": []}
    return checks.check_run(workload, expected, measured)


def test_consistent_study_passes():
    assert run_checks() == []


def test_instance_moved_from_fast_to_slow_fails():
    moved = STDOUT.replace("MenuDisplay         5      2     1", "MenuDisplay         5      1     2")
    failures = run_checks(stdout=moved)
    assert any("Table 1 MenuDisplay" in failure for failure in failures)


def test_patterns_swapped_in_rank_fail():
    facts = copy.deepcopy(FACTS)
    facts["pattern_costs"]["MenuDisplay"].reverse()
    failures = run_checks(facts=facts)
    assert any("MenuDisplay: pattern #2" in failure for failure in failures)


def test_store_miss_counted_as_hit_fails():
    facts = dict(FACTS, store_hits=10, store_misses=0)
    failures = run_checks(facts=facts)
    assert "store hits 10, old traces 9" in failures
    assert "store misses 0, new traces 1" in failures


def test_wrong_d_scn_and_waitdist_above_wait_fail():
    facts = dict(FACTS, d_scn=1235, d_waitdist=901)
    failures = run_checks(facts=facts)
    assert any(failure.startswith("D_scn") for failure in failures)
    assert any("exceeds D_wait" in failure for failure in failures)


def test_event_count_mismatch_fails():
    assert any(f.startswith("events") for f in run_checks(facts=dict(FACTS, events=39)))


def test_repetition_that_differs_fails():
    base = {"exit_code": 0, "digest": "a", "events": 1, "attempted": 1, "failed": 0}
    failures = checks.check_repetitions([base, dict(base, digest="b")])
    assert failures == ["repetition 2: digest differs from repetition 1"]


def test_reference_run_with_other_tables_fails():
    first = {"stdout": STDOUT}
    other = {"label": "storeless", "stdout": STDOUT.replace("89.9%", "88.9%")}
    assert checks.check_references(first, [other]) == ["storeless run rendered different tables"]


def test_explore_checks():
    expected = {"cells": 2, "instances_per_cell": 12, "pathologies": ["LockConvoy", "WakeupStorm"]}
    facts = {
        "cells": [["LockConvoy", "fifo", 7, 12], ["WakeupStorm", "fifo", 7, 12]],
        "verdicts": [["LockConvoy", True], ["WakeupStorm", True]],
        "negative_control_clean": True,
    }
    assert checks.check_explore(expected, facts) == []
    short = copy.deepcopy(facts)
    short["cells"][1][3] = 11
    assert len(checks.check_explore(expected, short)) == 1
    missed = dict(facts, verdicts=[["LockConvoy", True], ["WakeupStorm", False]])
    assert checks.check_explore(expected, missed) == ["oracle missed the planted cause of WakeupStorm"]
    dirty = dict(facts, negative_control_clean=False)
    assert len(checks.check_explore(expected, dirty)) == 1


def _event(kind, tid, timestamp, cost):
    return SimpleNamespace(kind=SimpleNamespace(value=kind), tid=tid, timestamp=timestamp, cost=cost)


def test_corpus_facts_recompute_classes_and_d_scn():
    events = [
        _event("running", 1, 0, 50),     # reaches into the window from before it
        _event("wait", 1, 10, 5),        # ends before the window
        _event("wait", 1, 100, 30),      # inside
        _event("unwait", 1, 120, 0),     # not a wait or running event
        _event("running", 2, 100, 40),   # another thread
        _event("running", 1, 200, 10),   # starts at the window's end
    ]
    stream = SimpleNamespace(events=events, instances=[
        SimpleNamespace(scenario="S", tid=1, t0=40, t1=200),   # 160 us: slow
        SimpleNamespace(scenario="S", tid=1, t0=100, t1=105),  # 5 us: fast
        SimpleNamespace(scenario="S", tid=3, t0=0, t1=50),     # no events: between
    ])
    facts = corpus_facts([stream], {"S": (10, 100)})
    assert facts["table1"] == {"S": [3, 1, 1]}
    assert facts["d_scn"] == (50 + 30) + 30
    assert facts["events"] == 6 and facts["instances"] == 3 and facts["longest_thread"] == 5


def test_tracer_self_time_excludes_nested_spans():
    tracer = Tracer()

    def window():
        time.sleep(0.02)
        return [1, 2, 3]

    traced_window = tracer._wrap("window", window, None)

    def build():
        time.sleep(0.01)
        traced_window()
        traced_window()

    tracer._wrap("build", build, None)()
    layers = tracer.layer_metrics()
    assert layers["trace.window_calls"] == 2
    assert layers["waitgraph.graphs"] == 1
    assert layers["waitgraph.build_s"] >= layers["trace.window_s"] >= 0.04
    assert 0.01 <= layers["waitgraph.build_self_s"] < 0.03
