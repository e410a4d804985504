"""The writer-side workloads: ``ingest`` (incremental) and ``batch``.

ingest -- the single-caller maintenance loop on the default (serial)
backend. Per cycle: a fresh system; ``add_source`` for each of the eight
sources, attaching a fresh snapshot after the first so every later add
checkpoints; the search index build; then ``update_source`` once per
source with the corpus's update variant. An untraced run measures one
such caller per CPU at once, each a separate process pinned to its own
CPU with its own systems, corpora and snapshots, sharing nothing: a
shared host slows its CPUs independently and in phases longer than a
run, so every median samples every CPU for the whole run instead of one
CPU at a time. The figures are per caller: medians over all callers'
cycles.

batch -- ``integrate_many`` of the same-shaped corpus on the ``process``
backend with one worker per CPU, then ``save``.

Cycles rotate through the seed's corpus pool (caller ``k`` of ``n``
starts at corpus ``k * POOL // n``), and every cycle of a corpus must
digest alike. If corpus 0 ran only once, the run integrates it once
more after the timed cycles, off the clock, so that every run checks at
least one repeat. Only the calls named above are timed; digests, quality
scoring and the lazy reopen run between timed sections.
"""

from __future__ import annotations

import os
import pickle
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.core import Aladin, AladinConfig
from repro.exec import ExecConfig

from perfbench import layers
from perfbench.checks import (
    Tally, Verdict, floor_violations, median, percentile, quality, state_digest,
)
from perfbench.corpus import Corpus, corpus_pool
from perfbench.measure import Raw, peak_rss_mib, per_layer
from perfbench.outcome import Outcome


# Timed generations of the whole corpus pool, before the first cycle and
# again after every cycle, so that setup_s samples the whole run.
SETUP_PASSES = 3


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def snapshot_bytes(path: str) -> int:
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(path + suffix)
    )


class Cycle:
    """Timings and observations of one cycle (one maintenance pass or batch)."""

    def __init__(self, label: str):
        self.label = label  # "<caller>.<cycle>", or "t.<cycle>" when traced
        self.corpus_index = 0
        self.seconds: Dict[str, float] = {}
        self.op_s: List[float] = []  # each add/update call, or the whole batch
        self.digests: Dict[str, Dict[str, str]] = {}
        self.quality: Optional[Dict] = None
        self.bytes_ratio = 0.0
        self.open_ms = 0.0
        self.metrics: Optional[Dict] = None
        self.traces: List = []
        self.comparisons = 0
        self.snapshot_bytes = 0
        self.hydrations = 0


def _reopen_check(cycle: Cycle, path: str, live: Dict[str, str], verdict: Verdict) -> None:
    """A lazy read-only reopen of the cycle's own snapshot must digest
    exactly like the live system that wrote it."""
    started = time.perf_counter()
    reopened = Aladin.open(path, read_only=True, lazy=True)
    cycle.open_ms = (time.perf_counter() - started) * 1000.0
    try:
        cycle.digests["reopen"] = state_digest(reopened)
        cycle.hydrations = len(reopened.hydration_stats()["hydrated"])
    finally:
        reopened.close()
    verdict.require(
        cycle.digests["reopen"] == live,
        f"cycle {cycle.label}: lazy reopen digest differs from the live system",
    )


def ingest_cycle(corpus: Corpus, label: str, workdir: str, tally: Tally,
                 verdict: Verdict) -> Cycle:
    cycle = Cycle(label)
    path = os.path.join(workdir, f"ingest-{label}.snapshot")
    aladin = Aladin(AladinConfig())
    try:
        started = time.perf_counter()
        for position, (name, fmt, text, options) in enumerate(corpus.specs()):
            began = time.perf_counter()
            tally.run(
                lambda n=name, f=fmt, t=text, o=options: aladin.add_source(n, f, t, **o),
                f"add_source {name}",
            )
            cycle.op_s.append(time.perf_counter() - began)
            if position == 0:
                aladin.save(path)
        aladin.search_engine()
        cycle.seconds["ingest"] = time.perf_counter() - started

        cycle.quality = quality(corpus.base, aladin)

        started = time.perf_counter()
        for name, text in corpus.variant_texts():
            began = time.perf_counter()
            tally.run(
                lambda n=name, t=text: aladin.update_source(n, t),
                f"update_source {name}",
            )
            cycle.op_s.append(time.perf_counter() - began)
        cycle.seconds["update"] = time.perf_counter() - started

        cycle.digests["live"] = state_digest(aladin)
        cycle.metrics = aladin.metrics()
        cycle.comparisons = aladin._engine.comparisons_made
    finally:
        aladin.close()
    cycle.snapshot_bytes = snapshot_bytes(path)
    variant_bytes = sum(len(t.encode("utf-8")) for _, t in corpus.variant_texts())
    cycle.bytes_ratio = cycle.snapshot_bytes / variant_bytes
    _reopen_check(cycle, path, cycle.digests["live"], verdict)
    return cycle


def _batch_aladin(workers: int) -> Aladin:
    config = AladinConfig()
    config.execution = ExecConfig(backend="process", workers=workers)
    return Aladin(config)


def batch_cycle(corpus: Corpus, label: str, workdir: str, tally: Tally,
                verdict: Verdict) -> Cycle:
    cycle = Cycle(label)
    path = os.path.join(workdir, f"batch-{label}.snapshot")
    specs = corpus.specs()
    aladin = _batch_aladin(cpu_count())
    try:
        started = time.perf_counter()
        tally.attempted += len(specs)
        try:
            aladin.integrate_many(specs)
        except Exception as exc:  # noqa: BLE001 - the batch is atomic: all failed
            tally.failed += len(specs) - 1
            tally.record_failure(f"integrate_many: {exc!r}")
        aladin.save(path)
        cycle.seconds["batch"] = time.perf_counter() - started
        cycle.op_s.append(cycle.seconds["batch"])

        cycle.metrics = aladin.metrics()
        cycle.traces = aladin.traces()
        cycle.comparisons = aladin._engine.comparisons_made
        cycle.quality = quality(corpus.base, aladin)
        aladin.search_engine()  # off the clock: postings join the digest
        cycle.digests["live"] = state_digest(aladin)
    finally:
        aladin.close()
    cycle.snapshot_bytes = snapshot_bytes(path)
    cycle.bytes_ratio = cycle.snapshot_bytes / corpus.source_bytes()
    _reopen_check(cycle, path, cycle.digests["live"], verdict)
    return cycle


def incremental_reference(corpus: Corpus) -> Dict[str, str]:
    """The ingest path's state after its add pass, for batch == incremental."""
    aladin = Aladin(AladinConfig())
    try:
        for name, fmt, text, options in corpus.specs():
            aladin.add_source(name, fmt, text, **options)
        aladin.search_engine()
        return state_digest(aladin)
    finally:
        aladin.close()


# ----------------------------------------------------------------------

def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs
    Python right now. Printed next to the figures, never in them."""
    began = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value
    return (time.perf_counter() - began) * 1000.0


def _run_cycles(step, corpora, workdir, seconds, tally, verdict,
                count: Optional[int] = None, between=None, caller: str = "0",
                first: int = 0, cpu: Optional[int] = None) -> List[Cycle]:
    """Cycles until ``seconds`` of wall time have passed (at least one),
    or exactly ``count`` cycles, starting at corpus ``first`` of the pool;
    ``between(index)`` runs after each. The caller stays on ``cpu`` if
    given; otherwise an ingest caller moves to the next CPU each cycle, so
    that it samples every CPU alike."""
    cycles: List[Cycle] = []
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    try:
        while True:
            index = len(cycles)
            if count is not None and index >= count:
                break
            if count is None and cycles and time.perf_counter() - started >= seconds:
                break
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            elif step is ingest_cycle:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            position = (first + index) % len(corpora)
            cycle = step(corpora[position], f"{caller}.{index}", workdir, tally, verdict)
            cycle.corpus_index = position
            cycles.append(cycle)
            if between is not None:
                between(index)
    finally:
        os.sched_setaffinity(0, cpus)
    return cycles


def _forked(work, path: str) -> int:
    """Run ``work()`` in a fork child that pickles ``("ok", result)`` or
    ``("error", repr)`` to ``path`` and exits; returns the child's pid."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        try:
            result = ("ok", work())
            status = 0
        except BaseException as exc:  # noqa: BLE001 - handed to the parent
            result = ("error", repr(exc))
        with open(path, "wb") as fh:
            pickle.dump(result, fh)
    finally:
        os._exit(status)


def _joined(pid: int, path: str):
    """Wait for a :func:`_forked` child; its ``("ok", result)`` or
    ``("error", message)``."""
    _, status = os.waitpid(pid, 0)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError):
        return "error", f"process {pid} left no result (exit status {status})"


def _run_callers(step, corpora, workdir, seconds, tally, verdict, between) -> List[Cycle]:
    """One caller per CPU for ``seconds``: this process on the first CPU
    (running ``between`` after its cycles), a fork child on each other.
    Callers share nothing; the children's tallies and verdicts are merged
    into ``tally`` and ``verdict``."""
    cpus = sorted(os.sched_getaffinity(0))

    def caller(k: int, mine: Tally, checks: Verdict, after=None) -> List[Cycle]:
        return _run_cycles(step, corpora, workdir, seconds, mine, checks,
                           between=after, caller=str(k),
                           first=k * len(corpora) // len(cpus), cpu=cpus[k])

    def child(k: int):
        mine, checks = Tally(), Verdict()
        return caller(k, mine, checks), mine, checks

    children = []
    try:
        for k in range(1, len(cpus)):
            path = os.path.join(workdir, f"caller-{k}.pickle")
            children.append((_forked(lambda k=k: child(k), path), path))
        cycles = caller(0, tally, verdict, between)
    finally:
        results = [_joined(pid, path) for pid, path in children]
    for kind, result in results:
        if kind != "ok":
            raise RuntimeError(f"a caller failed: {result}")
        child_cycles, child_tally, child_verdict = result
        cycles.extend(child_cycles)
        tally.attempted += child_tally.attempted
        tally.failed += child_tally.failed
        tally.errors.extend(child_tally.errors[:max(0, 20 - len(tally.errors))])
        verdict.problems.extend(child_verdict.problems)
    return cycles


def _check_cycles(cycles: List[Cycle], verdict: Verdict) -> None:
    """Quality floors on every cycle; every cycle of a corpus, whichever
    caller ran it, digests like the first one of it."""
    for cycle in cycles:
        for problem in floor_violations(cycle.quality):
            verdict.require(False, f"cycle {cycle.label}: {problem}")
    first: Dict[int, Cycle] = {}
    for cycle in cycles:
        same = first.setdefault(cycle.corpus_index, cycle)
        verdict.require(
            same.digests["live"] == cycle.digests["live"],
            f"cycle {cycle.label}: a repeat of corpus {cycle.corpus_index} digests "
            f"differently from cycle {same.label}",
        )


def cycle_s(cycle: Cycle) -> float:
    """The cycle's timed seconds: ingest + update, or the batch."""
    return sum(cycle.seconds.values())


def pool_mean(cycles: List[Cycle], value) -> float:
    """Mean over the corpora the cycles met of each corpus's median
    ``value(cycle)``. Every corpus of the pool weighs the same however
    often a run met it, so which corpora a run happens to repeat does
    not move the figure; corpora differ in cost (an update variant that
    crosses the re-analysis threshold costs up to 1 s more), seeds' pools
    hardly do."""
    by_corpus: Dict[int, List[float]] = defaultdict(list)
    for cycle in cycles:
        by_corpus[cycle.corpus_index].append(value(cycle))
    return sum(statistics.median(v) for v in by_corpus.values()) / len(by_corpus)


def _layers(cycles: List[Cycle], snapshot: Dict, batch: bool) -> Raw:
    raw = Raw()
    raw.units = len(cycles)
    raw.fold_ledger(snapshot)
    for cycle in cycles:
        raw.fold_program(cycle.metrics)
        raw.add("linking.comparisons", cycle.comparisons)
        if batch:
            raw.fold_worker_spans(cycle.traces)
            raw.fold_stage_histograms(cycle.metrics)
    return raw


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    out = Outcome()
    tally, verdict = out.tally, out.verdict
    started = time.perf_counter()
    corpora, generation = corpus_pool(seed, passes=SETUP_PASSES)
    probes = [host_probe_ms()]

    def between(index: int) -> None:
        # Set-up is timed again between cycles, so its median spans the run.
        generation.extend(corpus_pool(seed, passes=SETUP_PASSES)[1])
        probes.append(host_probe_ms())

    step = ingest_cycle if workload == "ingest" else batch_cycle

    if workload == "ingest" and not traced:
        plain = _run_callers(step, corpora, workdir, seconds, tally, verdict, between)
    else:
        plain = _run_cycles(step, corpora, workdir, seconds / 2 if traced else seconds,
                            tally, verdict, between=between)
    setup_s = median(generation)
    rss = peak_rss_mib()
    if sum(c.corpus_index == 0 for c in plain) < 2:
        closing = step(corpora[0], "closing", workdir, tally, verdict)
        _check_cycles(plain + [closing], verdict)
    else:
        _check_cycles(plain, verdict)

    if workload == "batch":
        reference = incremental_reference(corpora[0])
        verdict.require(
            reference == plain[0].digests["live"],
            "batch integrate_many differs from the incremental add_source pass",
        )

    if traced:
        ledger = layers.install()
        try:
            traced_cycles = _run_cycles(step, corpora, workdir, 0, tally, verdict,
                                        count=len(plain), caller="t")
            snapshot = ledger.snapshot()
        finally:
            ledger.uninstall()
        for mine, theirs in zip(traced_cycles, plain):
            verdict.require(
                mine.digests["live"] == theirs.digests["live"],
                f"cycle {mine.label}: traced run digests differently from untraced",
            )
        raw = _layers(traced_cycles, snapshot, workload == "batch")
        plain_s = sum(cycle_s(c) for c in plain)
        traced_s = sum(cycle_s(c) for c in traced_cycles)
        out.layers = per_layer(raw, {
            "persist.snapshot_bytes": median([c.snapshot_bytes for c in traced_cycles]),
            "persist.open_ms": median([c.open_ms for c in traced_cycles]),
            "persist.hydrations": median([c.hydrations for c in traced_cycles]),
            "obs.trace_overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
        })

    ops = len(corpora[0].specs()) * (2 if workload == "ingest" else 1)
    if workload == "ingest":
        unit_s = pool_mean(plain, cycle_s)
        out.figures["ingest_s"] = (pool_mean(plain, lambda c: c.seconds["ingest"]), "s")
        out.figures["update_s"] = (pool_mean(plain, lambda c: c.seconds["update"]), "s")
    else:
        unit_s = pool_mean(plain, cycle_s)
        out.figures["batch_s"] = (unit_s, "s")
    ratio = pool_mean(plain, lambda c: c.bytes_ratio)
    op_p99_ms = pool_mean(plain, lambda c: percentile(c.op_s, 99)) * 1000.0
    out.figures["op_p99_ms"] = (op_p99_ms, "ms")
    out.figures["snapshot_bytes_ratio"] = (ratio, "bytes/byte")
    out.figures["setup_s"] = (setup_s, "s")
    out.figures["peak_rss_mb"] = (rss, "MiB")
    out.e2e = {
        "setup_s": setup_s,
        "ops_per_s": ops / unit_s,
        "op_p99_ms": op_p99_ms,
        "peak_rss_mb": rss,
        "snapshot_bytes_ratio": ratio,
    }
    out.notes.append("cycle seconds (corpus:seconds): " + " ".join(
        f"{c.corpus_index}:{cycle_s(c):.3f}" for c in plain))
    out.notes.append(f"host probe (fixed Python loop) median {median(probes):.2f} ms")
    q = plain[0].quality
    out.notes.append(
        f"{len(plain)} cycles by {len({c.label.split('.')[0] for c in plain})} caller(s); "
        f"corpus 0: {corpora[0].source_bytes()} source bytes; "
        f"crossref tp/fp/fn {q['crossref_tp']}/{q['crossref_fp']}/{q['crossref_fn']}, "
        f"duplicates tp/fp/fn {q['duplicate_tp']}/{q['duplicate_fp']}/{q['duplicate_fn']}; "
        f"{time.perf_counter() - started:.1f}s wall"
    )
    return out
