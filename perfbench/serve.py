"""The reader-side workload: ``serve``.

Set-up builds a snapshot of the seed's corpus (``add_source`` x8, index,
``save``) and starts ``python -m repro serve`` on it with the default
serving config (only the port is ephemeral), until the first ``/healthz``
200. One client process -- this one -- drives a closed loop over one
connection per CPU: each connection sends its next request when the
previous answer has arrived. Requests mix /search, /browse, /crawl and
/walk over a target population larger than the server's 1,024-entry
result cache, drawn with Zipf-skewed popularity, so the cache both hits
and evicts. The warm-up wave -- every target once, in seeded order: cold
cache, first-touch hydration of every source -- is reported on its own;
the steady state is the Zipf stream after it.

The traffic shape is an assumption, not a measurement: there is no
request log of this system to take it from. The four endpoints are
equally likely. Within an endpoint, popularity follows Zipf's law with
exponent 0.8, inside the 0.64-0.83 range Breslau et al. measured on web
proxy traces ("Web Caching and Zipf-like Distributions: Evidence and
Implications", IEEE INFOCOM 1999). Throughput depends on the result
cache's hit ratio, which this shape sets, so every run prints the ratio
it measured.

Output checks, off the timed path: every sampled response of every
endpoint must equal, byte for byte, ``encode_body`` of a direct
``serve.service.ENDPOINTS`` call on a lazy open of the same snapshot.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlencode, urlsplit

from repro.core import Aladin, AladinConfig
from repro.serve.service import ENDPOINTS, ServeError, encode_body

from perfbench.checks import Tally, Verdict, median, percentile
from perfbench.corpus import Corpus, corpus
from perfbench.maintenance import cpu_count, host_probe_ms, snapshot_bytes
from perfbench.measure import Raw, per_layer
from perfbench.outcome import Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUPS = 3  # set-ups per run; setup_s is their median
BLOCK = 200  # requests per steady-state throughput block
P99_BLOCK = 1000  # requests per steady-state p99 block
TIMEOUT_S = 10.0  # client timeout; a failed request counts as this latency
ZIPF_S = 0.8  # see the module docstring
SAMPLES_PER_ENDPOINT = 8
ACCESS_SAMPLES = 25
WORD = re.compile(r"[a-z]{4,}")

Target = Tuple[str, Dict[str, str]]  # (endpoint, params)


# ----------------------------------------------------------------------
# HTTP, the smallest client that speaks the server's protocol
# ----------------------------------------------------------------------

def target_url(target: Target) -> str:
    endpoint, params = target
    return f"/{endpoint}?{urlencode(sorted(params.items()))}"


def fetch(port: int, path: str) -> Tuple[int, bytes]:
    """One request on a fresh connection; status 0 on reset or timeout."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, b""
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        return 0, b""
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length" and int(value) != len(body):
            return 0, b""
    return status, body


class Server:
    """A ``python -m repro serve`` child process on an ephemeral port."""

    def __init__(self, snapshot: str, workdir: str, launcher: Optional[List[str]] = None,
                 env: Optional[Dict[str, str]] = None):
        self.stderr = open(os.path.join(workdir, f"server-{time.monotonic_ns()}.err"), "wb")
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = SRC
        child_env.update(env or {})
        command = launcher or [sys.executable, "-m", "repro"]
        self.proc = subprocess.Popen(
            command + ["serve", snapshot, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.stderr, env=child_env,
        )
        self.port = self._read_port()
        self._wait_healthy()

    def _read_port(self) -> int:
        deadline = time.monotonic() + 60
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                self.stop()
                raise RuntimeError("server printed no address within 60 s")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                self.stop()
                raise RuntimeError("server exited before printing its address")
            line += chunk
        match = re.search(rb"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(match.group(1))

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while fetch(self.port, "/healthz")[0] != 200:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def statz(self) -> Dict:
        status, body = fetch(self.port, "/statz")
        if status != 200:
            raise RuntimeError(f"/statz answered {status}")
        return json.loads(body)

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()


# ----------------------------------------------------------------------
# set-up and the target population
# ----------------------------------------------------------------------

def build_snapshot(corp: Corpus, path: str) -> None:
    aladin = Aladin(AladinConfig())
    try:
        for name, fmt, text, options in corp.specs():
            aladin.add_source(name, fmt, text, **options)
        aladin.search_engine()
        aladin.save(path)
    finally:
        aladin.close()


def population(corp: Corpus, aladin: Aladin) -> Dict[str, List[Target]]:
    """Every request target, per endpoint, derived from the corpus and the
    structure the program discovered in it."""
    words = sorted({w for s in corp.base.sources for w in WORD.findall(s.text.lower())})
    search = [("search", {"q": w, "top_k": str(k)}) for w in words for k in (3, 5, 10, 20)]
    search += [
        ("search", {"q": f"{w} {words[(i * step + 1) % len(words)]}", "top_k": "10"})
        for i, w in enumerate(words) for step in (3, 7, 11)
    ]
    names = sorted(aladin.source_names())
    objects = [(name, accession) for name in names for accession in aladin.web.accessions(name)]
    browse = [("browse", {"source": s, "accession": a}) for s, a in objects]
    crawl = [
        ("crawl", {"seeds": f"{s}:{a}", "max_pages": str(pages)})
        for s, a in objects for pages in (5, 20)
    ]
    walk = []
    for source, accession in objects:
        structure = aladin.repository.structure(source)
        key = structure.accession_candidates[structure.primary_relation]
        statement = f"SELECT * FROM {key.table} WHERE {key.column} = '{accession}'"
        walk += [
            ("walk", {"source": source, "statement": statement, "target": target})
            for target in names if target != source
        ]
    return {"search": search, "browse": browse, "crawl": crawl, "walk": walk}


class Traffic:
    """The seeded request stream: the warm-up wave (every target once),
    then a uniformly drawn endpoint and a target by Zipf rank."""

    def __init__(self, pop: Dict[str, List[Target]], seed: int):
        self.rng = random.Random(seed)
        self.wave = [target for targets in pop.values() for target in targets]
        self.rng.shuffle(self.wave)
        self.endpoints = sorted(pop)
        self.ranked = {}
        self.cumulative = {}
        for endpoint, targets in pop.items():
            order = list(targets)
            self.rng.shuffle(order)
            self.ranked[endpoint] = order
            self.cumulative[endpoint] = list(itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))
            ))
        self.lock = threading.Lock()

    def target(self, seq: int) -> Target:
        if seq < len(self.wave):
            return self.wave[seq]
        with self.lock:
            endpoint = self.rng.choice(self.endpoints)
            return self.rng.choices(
                self.ranked[endpoint], cum_weights=self.cumulative[endpoint]
            )[0]


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

class Loop:
    """``connections`` closed-loop clients until ``seconds`` have passed."""

    def __init__(self, port: int, traffic: Traffic, connections: int, seconds: float):
        self.port, self.traffic = port, traffic
        self.connections, self.seconds = connections, seconds
        self.records: List[Tuple[int, float, float, str, bool]] = []  # seq, done, latency, endpoint, ok
        self.issued = 0
        self.warmup_n = len(traffic.wave)
        self.lock = threading.Lock()
        self.started = 0.0

    def _client(self) -> None:
        deadline = self.started + self.seconds
        while True:
            with self.lock:
                if time.perf_counter() >= deadline and self.issued >= self.warmup_n:
                    return
                seq = self.issued
                self.issued += 1
            endpoint, params = target = self.traffic.target(seq)
            began = time.perf_counter()
            status, _body = fetch(self.port, target_url(target))
            done = time.perf_counter()
            ok = status == 200
            with self.lock:
                self.records.append((seq, done, done - began if ok else TIMEOUT_S, endpoint, ok))

    def run(self) -> "Loop":
        self.started = time.perf_counter()
        threads = [threading.Thread(target=self._client) for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.seconds + 4 * TIMEOUT_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("closed-loop client did not finish")
        return self

    def warmup(self):
        return [r for r in self.records if r[0] < self.warmup_n]

    def steady(self):
        return sorted((r for r in self.records if r[0] >= self.warmup_n), key=lambda r: r[1])

    def warmup_s(self) -> float:
        return max(r[1] for r in self.warmup()) - self.started

    def p99_ms(self) -> float:
        """Median over consecutive blocks of P99_BLOCK completions of each
        block's p99 latency: a host stall spoils a few blocks, not the
        figure."""
        steady = self.steady()
        blocks = [
            percentile([r[2] for r in steady[first:first + P99_BLOCK]], 99) * 1000.0
            for first in range(0, len(steady) - P99_BLOCK + 1, P99_BLOCK)
        ]
        if not blocks:
            raise RuntimeError("steady state shorter than one p99 block; raise --seconds")
        return median(blocks)

    def rps(self) -> float:
        """Median throughput over consecutive blocks of BLOCK completions."""
        steady = self.steady()
        warm_end = max(r[1] for r in self.warmup())
        rates, start = [], warm_end
        for first in range(0, len(steady) - BLOCK + 1, BLOCK):
            end = steady[first + BLOCK - 1][1]
            rates.append(BLOCK / (end - start))
            start = end
        if not rates:
            raise RuntimeError("steady state shorter than one block; raise --seconds")
        return median(rates)


# ----------------------------------------------------------------------

def _direct(aladin: Aladin, target: Target) -> bytes:
    endpoint, params = target
    try:
        return encode_body(ENDPOINTS[endpoint](aladin, params))
    except ServeError as exc:
        return encode_body({"error": exc.message})


def _check_bytes(port: int, aladin: Aladin, pop, seed: int, verdict: Verdict) -> int:
    rng = random.Random(seed * 31 + 7)
    compared = 0
    for endpoint, targets in sorted(pop.items()):
        for target in rng.sample(targets, min(SAMPLES_PER_ENDPOINT, len(targets))):
            url = target_url(target)
            params = dict(parse_qsl(urlsplit(url).query, keep_blank_values=True))
            status, body = fetch(port, url)
            expected = _direct(aladin, (endpoint, params))
            verdict.require(status == 200, f"{url} answered {status}")
            verdict.require(body == expected, f"{url}: body differs from a direct call")
            compared += 1
    return compared


def _access_ms(aladin: Aladin, pop, seed: int) -> Dict[str, float]:
    """Median direct handler latency per endpoint, after one warm pass."""
    rng = random.Random(seed * 17 + 5)
    result = {}
    for endpoint, targets in pop.items():
        sample = rng.sample(targets, min(ACCESS_SAMPLES, len(targets)))
        for target in sample:
            _direct(aladin, target)
        times = []
        for target in sample:
            began = time.perf_counter()
            _direct(aladin, target)
            times.append((time.perf_counter() - began) * 1000.0)
        result[endpoint] = median(times)
    return result


def _open_ms(path: str, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        aladin = Aladin.open(path, read_only=True, lazy=True)
        times.append((time.perf_counter() - began) * 1000.0)
        aladin.close()
    return median(times)


def _tally(loop: Loop, tally: Tally) -> None:
    for seq, _done, _latency, endpoint, ok in loop.records:
        tally.record(ok, f"request {seq} /{endpoint}")


def _setup(seed: int, workdir: str, index: int) -> Tuple[float, Corpus, str, Server]:
    began = time.perf_counter()
    corp = corpus(seed, 0)
    path = os.path.join(workdir, f"serve-{index}.snapshot")
    build_snapshot(corp, path)
    server = Server(path, workdir)
    return time.perf_counter() - began, corp, path, server


def run(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    out = Outcome()
    tally, verdict = out.tally, out.verdict
    setups = []
    probes = [host_probe_ms()]
    server = None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
            elapsed, corp, path, server = _setup(seed, workdir, index)
            setups.append(elapsed)
        direct = Aladin.open(path, read_only=True, lazy=True)
        try:
            pop = population(corp, direct)
            connections = cpu_count()
            phase = seconds / 2 if traced else seconds
            loop = Loop(server.port, Traffic(pop, seed), connections, phase).run()
            _tally(loop, tally)
            probes.append(host_probe_ms())
            rss = server.peak_rss_mib()
            statz = server.statz()
            compared = _check_bytes(server.port, direct, pop, seed, verdict)
            if traced:
                out.layers = _traced_phase(seed, path, workdir, pop, phase, loop,
                                           direct, tally)
        finally:
            direct.close()
    finally:
        if server is not None:
            server.stop()

    steady = loop.steady()
    latencies = [r[2] for r in steady]
    p50 = percentile(latencies, 50) * 1000.0
    p99 = percentile(latencies, 99) * 1000.0
    rps = loop.rps()
    source_bytes = corp.source_bytes()
    ratio = snapshot_bytes(path) / source_bytes
    setup_s = median(setups)
    cache = statz["cache"]
    op_p99_ms = loop.p99_ms()
    out.figures = {
        "setup_s": (setup_s, "s"),
        "serve_rps": (rps, "req/s"),
        "serve_p50_ms": (p50, "ms"),
        "serve_p99_ms": (p99, "ms"),
        "op_p99_ms": (op_p99_ms, "ms"),
        "serve_warmup_s": (loop.warmup_s(), "s"),
        "serve_cache_hit_ratio": (cache["hits"] / (cache["hits"] + cache["misses"]), "ratio"),
        "peak_rss_mb": (rss, "MiB"),
        "snapshot_bytes_ratio": (ratio, "bytes/byte"),
    }
    out.e2e = {
        "setup_s": setup_s,
        "ops_per_s": rps,
        "op_p99_ms": op_p99_ms,
        "peak_rss_mb": rss,
        "snapshot_bytes_ratio": ratio,
    }
    total = sum(len(t) for t in pop.values())
    out.notes.append(
        f"{connections} connections; {len(steady)} steady-state samples behind p50/p99; "
        f"population {total} targets "
        f"({', '.join(f'{k} {len(v)}' for k, v in sorted(pop.items()))}) vs cache "
        f"{cache['max_entries']}; cache hits {cache['hits']} misses {cache['misses']} "
        f"evictions {cache['evictions']}; {compared} responses compared byte for byte; "
        f"{source_bytes} source bytes"
    )
    out.notes.append(f"host probe (fixed Python loop) median {median(probes):.2f} ms")
    return out


def _traced_phase(seed, path, workdir, pop, phase, plain: Loop, direct, tally) -> Dict[str, float]:
    """A second server with the layer wrappers installed, same traffic."""
    ledger_path = os.path.join(workdir, "server-ledger.json")
    launcher = [sys.executable, os.path.join(HERE, "traced_server.py")]
    server = Server(path, workdir, launcher=launcher,
                    env={"PERFBENCH_LEDGER_OUT": ledger_path})
    try:
        before = server.statz()
        loop = Loop(server.port, Traffic(pop, seed), plain.connections, phase).run()
        statz = server.statz()
    finally:
        server.stop()
    _tally(loop, tally)
    with open(ledger_path, encoding="utf-8") as fh:
        server_ledger = json.load(fh)

    raw = Raw()
    raw.units = 1
    raw.fold_ledger(server_ledger)
    raw.fold_program(statz.get("metrics", {}))
    cache = statz["cache"]
    hits = cache["hits"] - before["cache"]["hits"]
    misses = cache["misses"] - before["cache"]["misses"]
    access = _access_ms(direct, pop, seed)
    extra = {
        "persist.snapshot_bytes": float(snapshot_bytes(path)),
        "persist.open_ms": _open_ms(path),
        "persist.hydrations": float(len(statz.get("hydration", {}).get("hydrated", []))),
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.evictions": float(cache["evictions"] - before["cache"]["evictions"]),
        "serve.rejected": float(statz["rejected"] - before["rejected"]),
        "obs.trace_overhead_pct": (plain.rps() / loop.rps() - 1.0) * 100.0,
    }
    steady = loop.steady()
    frontend = []
    for endpoint in ENDPOINTS:
        latencies = [r[2] * 1000.0 for r in steady if r[3] == endpoint]
        p50 = percentile(latencies, 50) if latencies else 0.0
        extra[f"serve.endpoint.{endpoint}.p50_ms"] = p50
        extra[f"serve.endpoint.{endpoint}.p99_ms"] = percentile(latencies, 99) if latencies else 0.0
        extra[f"access.{endpoint}_ms"] = access[endpoint]
        frontend.append(p50 - access[endpoint])
    extra["serve.frontend_ms"] = sum(frontend) / len(frontend)
    return per_layer(raw, extra)
