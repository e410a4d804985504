"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from perfbench.checks import Tally, Verdict


@dataclass
class Outcome:
    # The BENCHMARK.json end_to_end metrics (same names on every workload).
    e2e: Dict[str, float] = field(default_factory=dict)
    # The workload's own figures (ingest_s, serve_rps, ...): name -> (value, unit).
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    # Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    verdict: Verdict = field(default_factory=Verdict)
    notes: List[str] = field(default_factory=list)
