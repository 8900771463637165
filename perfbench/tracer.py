"""Per-layer spans and counters, recorded around calls into ``repro``.

The tracer wraps public functions and methods of the program's layers
from the outside: nothing in ``src/`` knows it is being traced.  Each
wrapped callable belongs to a *group*.  A group's time counts only its
outermost call, so a layer that calls itself is not counted twice, and
the time a span spends inside spans of other groups is recorded per
pair, which gives self times such as ``waitgraph.build_self_s``.

Counters that need to inspect a result (graph sizes, pattern counts)
run after the wrapped call with every open span's clock paused, so they
add to the tracing overhead but not to any layer's time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Hook = Optional[Callable[["Tracer", tuple, dict, object], None]]


def _count_len(counter: str) -> Hook:
    def hook(tracer, args, kwargs, result):
        tracer.counts[counter] += len(result)
    return hook


def _count_store_lookup(tracer, args, kwargs, result):
    tracer.counts["store.hits" if result is not None else "store.misses"] += 1


def _count_bytes_written(tracer, args, kwargs, result):
    tracer.counts["store.bytes_written"] += os.path.getsize(result)


def _count_graph_nodes(tracer, args, kwargs, result):
    tracer.counts["waitgraph.nodes"] += result.node_count()


def _count_awg_and_metas(tracer, args, kwargs, result):
    awg = args[0] if args else kwargs["awg"]
    tracer.counts["waitgraph.awg_nodes"] += awg.node_count()
    tracer.counts["causality.meta_patterns"] += len(result)


def _count_sim_events(tracer, args, kwargs, result):
    tracer.counts["sim.events"] += len(result.events)


def _collect_shape(tracer, args, kwargs, result):
    tracer.distinct["explore.shapes"].add(result)


#: (group, module, qualified name, hook) for every traced callable.
TARGETS: Tuple[Tuple[str, str, str, Hook], ...] = (
    ("decode", "repro.trace.serialization", "load_stream", None),
    ("decode", "repro.trace.binary", "load_stream_binary", None),
    ("window", "repro.trace.stream", "TraceStream.events_of_thread", _count_len("trace.window_events")),
    ("window", "repro.trace.binary", "ColumnarTraceStream.events_of_thread", _count_len("trace.window_events")),
    ("window", "repro.trace.binary", "ColumnarTraceStream.thread_event_indices", _count_len("trace.window_events")),
    ("hash", "repro.trace.serialization", "stream_content_hash", None),
    ("build", "repro.waitgraph.builder", "build_wait_graph", _count_graph_nodes),
    ("aggregate", "repro.waitgraph.aggregate", "AggregatedWaitGraph.add_graph", None),
    ("merge", "repro.waitgraph.aggregate", "merge_awgs", None),
    ("accumulate", "repro.impact.metrics", "ImpactAccumulator.add_graph", None),
    ("classify", "repro.causality.classes", "classify_instances", None),
    ("classify", "repro.pipeline.worker", "ScenarioPartial.add_instance", None),
    ("enumerate", "repro.causality.mining", "enumerate_meta_patterns", _count_awg_and_metas),
    ("discover", "repro.causality.mining", "discover_contrast_meta_patterns", None),
    ("extract", "repro.causality.mining", "extract_contrast_patterns", _count_len("causality.patterns")),
    ("coverage", "repro.evaluation.coverage", "evaluate_coverage", None),
    ("coverage", "repro.evaluation.coverage", "coverage_from_impact", None),
    ("pipeline", "repro.pipeline.api", "parallel_study", None),
    ("pipeline", "repro.pipeline.api", "parallel_impact", None),
    ("pipeline", "repro.pipeline.api", "parallel_causality", None),
    ("map", "repro.pipeline.worker", "analyze_chunk", None),
    ("store_load", "repro.store.artifacts", "ArtifactStore.load", _count_store_lookup),
    ("store_save", "repro.store.artifacts", "ArtifactStore.save", _count_bytes_written),
    ("render", "repro.report.tables", "Table.render", None),
    ("sim", "repro.sim.machine", "Machine.run_and_trace", _count_sim_events),
    ("cell", "repro.sim.explore.runner", "run_cell", None),
    ("fingerprint", "repro.sim.explore.fingerprint", "shape_fingerprint", _collect_shape),
    ("oracle", "repro.sim.explore.oracle", "verify_all_pathologies", None),
    ("oracle", "repro.sim.explore.oracle", "negative_control", None),
)


class Tracer:
    """Spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.nested_ns: Dict[Tuple[str, str], int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.missing: List[str] = []
        self._depth: Dict[str, int] = defaultdict(int)
        # Open spans, innermost last: [group, start_ns, child_ns].
        self._stack: List[list] = []

    # -- installation ---------------------------------------------------

    def install(self, groups: Optional[set] = None) -> "Tracer":
        """Wrap every target (of ``groups``, when given) in place.

        The wrappers stay for the life of the process: the benchmark
        traces only processes that exit after the traced work.
        """
        for group, module_name, qualname, hook in TARGETS:
            if groups is not None and group not in groups:
                continue
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attribute = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attribute] if owner_name else getattr(module, attribute)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{qualname}")
                continue
            wrapper = self._wrap(group, original, hook)
            if owner_name:
                setattr(owner, attribute, wrapper)
                continue
            # A module-level function is also reachable through every
            # ``from x import f`` binding, so rebind those too.
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, name, wrapper)
        return self

    def _wrap(self, group: str, func, hook: Hook):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer._enter(group)
            try:
                result = func(*args, **kwargs)
            finally:
                outermost = tracer._exit(group)
            if hook is not None and outermost:
                paused = time.perf_counter_ns()
                hook(tracer, args, kwargs, result)
                tracer._pause(time.perf_counter_ns() - paused)
            return result

        return traced

    # -- spans ----------------------------------------------------------

    def _enter(self, group: str) -> None:
        self._depth[group] += 1
        self._stack.append([group, time.perf_counter_ns(), 0])

    def _exit(self, group: str) -> bool:
        end = time.perf_counter_ns()
        _, start, child_ns = self._stack.pop()
        duration = end - start
        self._depth[group] -= 1
        parent = self._stack[-1] if self._stack else None
        if self._depth[group]:
            # Inside an outer call of the same group, which already
            # counts this time; pass up only what it spent elsewhere.
            if parent is not None:
                parent[2] += child_ns if parent[0] == group else duration
            return False
        self.total_ns[group] += duration
        self.self_ns[group] += duration - child_ns
        self.calls[group] += 1
        if parent is not None:
            parent[2] += duration
            self.nested_ns[(parent[0], group)] += duration
        return True

    def _pause(self, elapsed_ns: int) -> None:
        for frame in self._stack:
            frame[1] += elapsed_ns

    # -- results --------------------------------------------------------

    def seconds(self, group: str) -> float:
        return self.total_ns.get(group, 0) / 1e9

    def layer_metrics(self) -> Dict[str, float]:
        """This repetition's per-layer metrics, by their benchmark names."""
        s = self.seconds
        hits = self.counts["store.hits"]
        lookups = hits + self.counts["store.misses"]
        nested_window = self.nested_ns.get(("build", "window"), 0) / 1e9
        nested_map = self.nested_ns.get(("pipeline", "map"), 0) / 1e9
        return {
            "trace.decode_s": s("decode"),
            "trace.decode_streams": self.calls["decode"],
            "trace.window_s": s("window"),
            "trace.window_calls": self.calls["window"],
            "trace.window_events": self.counts["trace.window_events"],
            "trace.hash_s": s("hash"),
            "waitgraph.build_s": s("build"),
            "waitgraph.build_self_s": s("build") - nested_window,
            "waitgraph.graphs": self.calls["build"],
            "waitgraph.nodes": self.counts["waitgraph.nodes"],
            "waitgraph.aggregate_s": s("aggregate"),
            "waitgraph.awg_nodes": self.counts["waitgraph.awg_nodes"],
            "waitgraph.merge_s": s("merge"),
            "impact.accumulate_s": s("accumulate"),
            "impact.graphs": self.calls["accumulate"],
            "causality.classify_s": self.self_ns.get("classify", 0) / 1e9,
            "causality.enumerate_s": s("enumerate"),
            "causality.discover_s": s("discover"),
            "causality.extract_s": s("extract"),
            "causality.meta_patterns": self.counts["causality.meta_patterns"],
            "causality.patterns": self.counts["causality.patterns"],
            "evaluation.coverage_s": s("coverage"),
            "pipeline.map_s": s("map"),
            "pipeline.reduce_s": s("pipeline") - nested_map,
            "pipeline.chunks": self.calls["map"],
            "store.load_s": s("store_load"),
            "store.save_s": s("store_save"),
            "store.hits": hits,
            "store.misses": self.counts["store.misses"],
            "store.hit_ratio": hits / lookups if lookups else 0.0,
            "store.bytes_written": self.counts["store.bytes_written"],
            "report.render_s": s("render"),
            "sim.run_s": s("sim"),
            "sim.events": self.counts["sim.events"],
            "explore.cell_s": s("cell"),
            "explore.fingerprint_s": s("fingerprint"),
            "explore.oracle_s": s("oracle"),
            "explore.cells": self.calls["cell"],
            "explore.shapes": len(self.distinct["explore.shapes"]),
        }
