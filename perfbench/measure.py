"""Turning raw observations into the benchmark's per-layer metrics.

A :class:`Raw` accumulator collects sums from three places -- the
benchmark's own wrappers (:mod:`perfbench.layers`), the program's
``Aladin.metrics()`` snapshot, and the span tree of ``Aladin.traces()``
-- and :func:`per_layer` divides them into per-unit figures (per
maintenance cycle, per batch) named as in ``BENCHMARK.json``; what each
one measures is written up in ``perfbench/LEDGER.json``.
Every catalog metric is always present; a layer that did no work
reports 0.
"""

from __future__ import annotations

import json
import os
import resource
from collections import defaultdict
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def catalog(kind: str) -> Dict[str, str]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` metrics, in
    file order: name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {entry["name"]: entry["unit"] for entry in json.load(fh)[kind]}


def peak_rss_mib() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Raw:
    """Summed observations; keys are free-form, see :func:`per_layer`."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = defaultdict(float)
        self.units = 0  # cycles or batches folded in

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    def fold_ledger(self, snapshot: Dict[str, Any]) -> None:
        for metric, seconds in snapshot["seconds"].items():
            self.add(metric, seconds)
        self.add("linking.editdistance.calls",
                 snapshot["calls"].get("linking.editdistance", 0))
        self.add("linking.editdistance.cells", snapshot["cells"])

    def fold_program(self, metrics: Dict[str, Any]) -> None:
        """Fold one ``Aladin.metrics()`` snapshot (or ``/statz`` metrics)."""
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        hists = metrics.get("histograms", {})
        for key in ("hits", "misses"):
            self.add(f"column_cache.{key}", gauges.get(f"column_cache.{key}", 0))
        for key in ("exact_scores", "pruned", "cache_hits"):
            self.add(f"scorer.{key}", gauges.get(f"scorer.{key}", 0))
        self.add("exec.fanouts", counters.get("pool.fanouts", 0))
        self.add("exec.tasks", counters.get("pool.tasks", 0))
        utilization = hists.get("pool.utilization", {})
        self.add("exec.utilization.sum", utilization.get("sum", 0.0))
        self.add("exec.utilization.count", utilization.get("count", 0))
        self.add("exec.overhead_s", hists.get("pool.overhead_seconds", {}).get("sum", 0.0))
        for name, hist in hists.items():
            if name.startswith("graph.") and name.endswith(".queue_wait"):
                self.add("core.graph.queue_wait_s", hist.get("sum", 0.0))
        checkpoints = hists.get("persist.checkpoint_seconds", {})
        self.add("persist.checkpoint_s", checkpoints.get("sum", 0.0))
        self.add("persist.checkpoints", checkpoints.get("count", 0))
        self.add("persist.compactions",
                 hists.get("persist.compaction_seconds", {}).get("count", 0))
        for name, value in counters.items():
            if name.startswith("persist.pushdown.") and name.endswith(".accepted"):
                self.add("persist.pushdown.accepted", value)
            elif name.startswith("persist.pushdown.") and name.endswith(".declined"):
                self.add("persist.pushdown.declined", value)

    def fold_worker_spans(self, traces: List[Dict[str, Any]]) -> None:
        """Layer time spent inside pool tasks, from the re-parented spans.

        Batch task labels name the stage: ``import:<source>`` (import and
        structure discovery), ``link:...`` (pair scans) and
        ``duplicates:<source>`` (duplicate chunks).
        """
        for trace in traces:
            for span in trace["spans"]:
                if span["name"] != "task":
                    continue
                label = str(span.get("attributes", {}).get("label", ""))
                seconds = span.get("duration") or 0.0
                if label.startswith("link:"):
                    self.add("linking.discover_s", seconds)
                elif label.startswith("duplicates:"):
                    self.add("duplicates.detect_s", seconds)

    def fold_stage_histograms(self, metrics: Dict[str, Any]) -> None:
        """Import/discovery work time as the integration reports record it
        (for the batch pipeline: seconds inside the fork workers)."""
        hists = metrics.get("histograms", {})
        self.add("dataimport.import_s", hists.get("stage.import", {}).get("sum", 0.0))
        self.add("discovery.discover_s",
                 hists.get("stage.discover_structure", {}).get("sum", 0.0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(raw: Raw, extra: Dict[str, float]) -> Dict[str, float]:
    """Every catalog metric: per-unit sums from ``raw`` plus ``extra``
    (figures a workload measures directly, e.g. endpoint percentiles)."""
    units = max(raw.units, 1)
    s = raw.sums
    names = catalog("per_layer")
    values: Dict[str, float] = {name: 0.0 for name in names}
    for name in (
        "dataimport.import_s", "discovery.discover_s", "linking.discover_s",
        "linking.editdistance.calls", "linking.editdistance.cells",
        "duplicates.detect_s", "metadata.store_s", "access.index_s",
        "exec.fanouts", "exec.tasks", "exec.overhead_s",
        "core.graph.queue_wait_s", "persist.checkpoint_s",
        "persist.checkpoints", "persist.compactions", "persist.save_s",
        "persist.pushdown.accepted", "persist.pushdown.declined",
        "linking.comparisons",
    ):
        values[name] = s.get(name, 0.0) / units
    hits, misses = s.get("column_cache.hits", 0.0), s.get("column_cache.misses", 0.0)
    values["relational.column_cache.hits"] = hits / units
    values["relational.column_cache.misses"] = misses / units
    values["relational.column_cache.hit_ratio"] = _ratio(hits, hits + misses)
    exact, pruned, cached = (
        s.get("scorer.exact_scores", 0.0), s.get("scorer.pruned", 0.0),
        s.get("scorer.cache_hits", 0.0),
    )
    values["duplicates.scorer.exact_scores"] = exact / units
    values["duplicates.scorer.prune_ratio"] = _ratio(pruned, pruned + exact)
    values["duplicates.scorer.cache_hit_ratio"] = _ratio(cached, cached + exact + pruned)
    values["exec.utilization"] = _ratio(
        s.get("exec.utilization.sum", 0.0), s.get("exec.utilization.count", 0.0)
    )
    values.update(extra)
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return values
