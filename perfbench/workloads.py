"""The benchmark's workloads: how each one's inputs are made and analysed.

A workload is a pure description.  ``prepare.py`` turns it and a seed
into inputs on disk, ``measure.py`` times the ``repro`` command line it
names over those inputs, and ``checks.py`` judges the outputs.  Nothing
here imports ``repro``, so the orchestrator stays free of the program
under test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The seed the README's reference figures use.
DEFAULT_SEED = 7

#: The grid of ``repro explore --smoke``, spelled out here so that the
#: checks notice when the command's grid changes.
EXPLORE_SCENARIOS = ("LockConvoy", "PriorityInversion", "DeadlockCycle", "WakeupStorm")
EXPLORE_POLICIES = ("fifo", "convoy", "shuffle")
EXPLORE_SEEDS = (0,)
EXPLORE_INTENSITIES = (0.3, 0.8)
EXPLORE_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the ``repro`` invocation timed over them."""

    name: str
    kind: str  # "study" or "explore"
    #: The corpus shape (study workloads): ``streams`` machines tracing
    #: ``repeats`` runs of each scenario, either the named ``scenarios``
    #: or ``mix`` of them drawn per machine; see ``prepare.make_corpus``.
    corpus: Dict[str, object] = field(default_factory=dict)
    format: str = "rtb"
    #: Share of the corpus analysed into the store at set-up.
    prewarm_share: float = 0.0
    #: Also encode the corpus in the other format, for the cross-format
    #: table check.
    cross_format: bool = False

    @property
    def uses_store(self) -> bool:
        return self.prewarm_share > 0.0

    def argv(self, inputs: str, store: Optional[str] = None) -> List[str]:
        """The ``repro`` command line of one timed repetition."""
        if self.kind == "explore":
            return ["explore", "--smoke", "--oracle", "--workers", "1"]
        argv = ["study", os.path.join(inputs, "corpus"), "--workers", "1", "--verbose"]
        if store is not None:
            argv += ["--store", store]
        return argv

    def reference_argvs(self, inputs: str) -> List[Tuple[str, List[str]]]:
        """Untimed runs whose rendered tables must equal the timed run's."""
        if self.kind != "study":
            return []
        runs = []
        if self.cross_format:
            runs.append(
                ("other-format", ["study", os.path.join(inputs, "other"), "--workers", "1", "--verbose"])
            )
        if self.uses_store:
            runs.append(
                ("storeless", ["study", os.path.join(inputs, "corpus"), "--workers", "1", "--verbose"])
            )
        return runs


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="study-jsonl",
            kind="study",
            corpus=dict(streams=6, repeats=2, mix=4),
            format="jsonl",
            cross_format=True,
        ),
        Workload(
            name="study-rtb-long",
            kind="study",
            corpus=dict(streams=1, repeats=80, scenarios=("WebPageNavigation", "AppNonResponsive")),
            format="rtb",
        ),
        Workload(
            name="study-store-incremental",
            kind="study",
            corpus=dict(streams=10, repeats=4, mix=7),
            format="rtb",
            prewarm_share=0.9,
        ),
        Workload(name="explore-oracle", kind="explore"),
    )
}
