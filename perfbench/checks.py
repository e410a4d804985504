"""Output checks and the small statistics the benchmark reports.

Nothing here depends on timing, backend, worker count or
``PYTHONHASHSEED``: digests hash sorted, canonically encoded tuples, and
the quality floors compare precision and recall, from exact true and false
positive counts, against the synthetic gold standard.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.eval import evaluate_crossref_links, evaluate_duplicates

# Quality floors for the state after the add_source pass (equivalently,
# after integrate_many), as the evaluator reports them (rounded to four
# places), set from the benchmark corpora -- all 8 pool corpora of seeds
# 0-39 and of four large seeds, 352 in all -- not copied from the E3/E4
# tests. Crossref links were 48 true, 5 false and 5 missed on every
# corpus, so one more false or missed link fails. Duplicates (6 gold
# pairs) were at worst 6 true with 5 false, or 5 true with 1 missed; the
# floors allow one error beyond those, because a run meets corpora no
# survey has seen and a floor at the exact minimum would flake.
# See perfbench/LEDGER.json, "quality_floors".
FLOORS = {
    "crossref_precision": 0.9057,  # 48 / 53
    "crossref_recall": 0.9057,  # 48 / 53
    "duplicate_precision": 0.5,  # 6 / 12
    "duplicate_recall": 0.6667,  # 4 / 6
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    (0-100) percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0-100")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def _digest(rows: List[Any]) -> str:
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def state_digest(aladin) -> Dict[str, str]:
    """Canonical digests of the link web, duplicate set and postings.

    Lists are sorted before hashing, so the order links were discovered
    in (which differs between the incremental and the batch pipeline)
    does not matter; every field of every link and posting does.
    Postings are keyed by (source, accession) because document ids are
    assignment order.
    """
    repo = aladin.repository
    objects = sorted(
        [l.source_a, l.accession_a, l.source_b, l.accession_b, l.kind,
         repr(l.certainty), str(l.evidence)]
        for l in repo.object_links()
    )
    attributes = sorted(
        [str(l.key()), repr(l.score), l.kind, str(l.encoded)]
        for l in repo.attribute_links()
    )
    duplicates = sorted(
        [l.source_a, l.accession_a, l.source_b, l.accession_b, repr(l.certainty)]
        for l in repo.object_links(kind="duplicate")
    )
    index = aladin._index  # the program exposes no public export
    postings = [] if index is None else sorted(
        [source, accession, length, bool(primary),
         sorted([str(p) for p in doc_postings])]
        for source, accession, length, primary, doc_postings
        in index.export_documents()
    )
    return {
        "web": _digest([objects, attributes]),
        "duplicates": _digest(duplicates),
        "postings": _digest(postings),
    }


def quality(scenario, aladin) -> Dict[str, Any]:
    """Crossref and duplicate P/R counts against the gold standard."""
    xref = evaluate_crossref_links(scenario, aladin).metric("object_links")
    dup = evaluate_duplicates(scenario, aladin).metric("duplicates")
    return {
        "crossref_tp": xref.true_positives,
        "crossref_fp": xref.false_positives,
        "crossref_fn": xref.false_negatives,
        "crossref_precision": xref.precision,
        "crossref_recall": xref.recall,
        "duplicate_tp": dup.true_positives,
        "duplicate_fp": dup.false_positives,
        "duplicate_fn": dup.false_negatives,
        "duplicate_precision": dup.precision,
        "duplicate_recall": dup.recall,
    }


def floor_violations(scores: Dict[str, Any]) -> List[str]:
    return [
        f"{name} {scores[name]:.4f} < floor {floor:.4f}"
        for name, floor in sorted(FLOORS.items())
        if scores[name] < floor
    ]


@dataclass
class Tally:
    """Operations attempted and failed; failures never stop the run."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def run(self, operation: Callable[[], Any], label: str = "") -> Optional[Any]:
        self.attempted += 1
        try:
            return operation()
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.record_failure(f"{label}: {exc!r}")
            return None

    def record(self, ok: bool, label: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.record_failure(label)

    def record_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Verdict:
    """Every output check of one run; any problem makes the run incorrect."""

    problems: List[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems
