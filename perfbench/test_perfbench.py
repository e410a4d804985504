"""Tests of the benchmark's own helpers: percentiles, digest
canonicalisation, failure counting and the no-program exit."""

import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench.checks import (
    FLOORS, Tally, Verdict, floor_violations, median, percentile, state_digest,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0) == 1
    assert percentile([7.5], 99) == 7.5
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2  # lower middle: a measured value


@pytest.mark.parametrize("values,q", [([], 50), ([1.0], -1), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def _link(a, acc_a, b, acc_b, kind="crossref", certainty=0.9):
    return SimpleNamespace(source_a=a, accession_a=acc_a, source_b=b,
                           accession_b=acc_b, kind=kind, certainty=certainty,
                           evidence="value")


def _attr(key, score=0.5):
    return SimpleNamespace(key=lambda: key, score=score, kind="crossref", encoded=False)


def _system(links, attrs, docs):
    class Repo:
        def object_links(self, kind=None):
            return [l for l in links if kind is None or l.kind == kind]

        def attribute_links(self):
            return list(attrs)

    index = SimpleNamespace(export_documents=lambda: list(docs))
    return SimpleNamespace(repository=Repo(), _index=index)


LINKS = [
    _link("sp", "P1", "pdb", "1ABC"),
    _link("sp", "P1", "pir", "A1", kind="duplicate", certainty=0.8),
    _link("go", "GO:1", "sp", "P2"),
]
ATTRS = [_attr(("sp", "entry.xref", "pdb", "structure.code")), _attr(("a", "b", "c", "d"))]
DOCS = [("sp", "P1", 12, True, [("kinase", "name", 1), ("atp", "desc", 2)]),
        ("pdb", "1ABC", 5, True, [("helix", "title", 1)])]


def test_digest_ignores_order():
    forward = state_digest(_system(LINKS, ATTRS, DOCS))
    shuffled = state_digest(_system(
        LINKS[::-1], ATTRS[::-1],
        [(s, a, n, p, list(reversed(post))) for s, a, n, p, post in DOCS[::-1]],
    ))
    assert forward == shuffled


def test_digest_sees_every_field():
    base = state_digest(_system(LINKS, ATTRS, DOCS))
    changed = [_link("sp", "P1", "pdb", "1ABC", certainty=0.91)] + LINKS[1:]
    assert state_digest(_system(changed, ATTRS, DOCS))["web"] != base["web"]
    fewer_dups = [l for l in LINKS if l.kind != "duplicate"]
    assert state_digest(_system(fewer_dups, ATTRS, DOCS))["duplicates"] != base["duplicates"]
    docs = [DOCS[0][:4] + ([("kinase", "name", 2), ("atp", "desc", 2)],), DOCS[1]]
    assert state_digest(_system(LINKS, ATTRS, docs))["postings"] != base["postings"]
    no_index = _system(LINKS, ATTRS, DOCS)
    no_index._index = None
    assert state_digest(no_index)["postings"] != base["postings"]


def test_tally_counts_failures_and_keeps_going():
    tally = Tally()
    assert tally.run(lambda: 3, "ok") == 3
    assert tally.run(lambda: 1 / 0, "boom") is None
    tally.record(True)
    tally.record(False, "request 7 /search")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_share() == 0.5
    assert tally.errors[0].startswith("boom: ZeroDivisionError")
    assert Tally().failed_share() == 0.0


def test_verdict_and_floors():
    verdict = Verdict()
    verdict.require(True, "fine")
    assert verdict.correct
    verdict.require(False, "broken")
    assert not verdict.correct and verdict.problems == ["broken"]
    scores = {name: 1.0 for name in FLOORS}
    assert floor_violations(scores) == []
    scores["duplicate_recall"] = 0.0
    assert len(floor_violations(scores)) == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_forked_caller_hands_back_its_result_or_its_error(tmp_path):
    from perfbench.maintenance import _forked, _joined

    path = str(tmp_path / "ok.pickle")
    kind, (cycles, tally) = _joined(_forked(lambda: ([1, 2], Tally(3, 1)), path), path)
    assert (kind, cycles, tally.failed) == ("ok", [1, 2], 1)
    path = str(tmp_path / "error.pickle")
    kind, message = _joined(_forked(lambda: 1 / 0, path), path)
    assert kind == "error" and "ZeroDivisionError" in message


def test_repeats_must_digest_alike_across_callers():
    from perfbench.maintenance import Cycle, _check_cycles

    def cycle(label, corpus_index, web):
        made = Cycle(label)
        made.corpus_index = corpus_index
        made.digests["live"] = {"web": web}
        made.quality = {name: 1.0 for name in FLOORS}
        return made

    verdict = Verdict()
    _check_cycles([cycle("0.0", 0, "a"), cycle("1.0", 4, "b"), cycle("1.4", 0, "a")], verdict)
    assert verdict.correct
    _check_cycles([cycle("0.0", 0, "a"), cycle("1.4", 0, "z")], verdict)
    assert verdict.problems == [
        "cycle 1.4: a repeat of corpus 0 digests differently from cycle 0.0"
    ]
