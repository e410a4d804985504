"""Benchmark corpora, generated from the ``--seed`` argument.

Every corpus is the E6 scenario shape -- all eight source formats
(Swiss-Prot-like flat file, PIR-like FASTA, PDB-like summaries, SCOP-like
classification, GO-like OBO, taxonomy table, BIND-like XML, OMIM-like
flat file) -- over one fixed synthetic universe at a reduced size, so one
maintenance cycle fits many times into a run. The universe (the "real
world": proteins, structures, terms) is fixed; the seed draws the
scenario: accession numbers, annotation order, cross-reference encodings
and text typos. Every source covers every object of the universe, which
keeps the work per corpus nearly the same from seed to seed; what varies
is content, not size.

A run rotates through ``POOL`` corpora per seed (corpus ``i`` of seed
``s`` uses scenario seed ``1009 * s + 2 * i``), and each corpus has an
update variant drawn from scenario seed ``1009 * s + 2 * i + 1``: the same
universe, another draw of accessions and typos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.synth import CorruptionConfig, Scenario, ScenarioConfig, UniverseConfig, build_scenario

# The E6 universe (seed 450) at 3 families x 2 members instead of 8 x 3.
UNIVERSE = {
    "n_families": 3,
    "members_per_family": 2,
    "n_go_terms": 9,
    "n_diseases": 5,
    "n_interactions": 6,
    "seed": 450,
}
COVERAGE = {
    "swissprot_coverage": 1.0,
    "pir_coverage": 1.0,
    "pdb_coverage": 1.0,
    "scop_coverage": 1.0,
    "interaction_coverage": 1.0,
}
TYPO_RATE = 0.05
POOL = 8  # corpora per seed a run rotates through

Spec = Tuple[str, str, str, Dict[str, object]]


@dataclass
class Corpus:
    """One base scenario and its update variant."""

    base: Scenario
    variant: Scenario

    def specs(self) -> List[Spec]:
        """What the program receives: names, format tokens, texts, options."""
        return [
            (s.name, s.facts.format_name, s.text, dict(s.facts.import_options))
            for s in self.base.sources
        ]

    def variant_texts(self) -> List[Tuple[str, str]]:
        return [(s.name, s.text) for s in self.variant.sources]

    def source_bytes(self) -> int:
        return sum(len(s.text.encode("utf-8")) for s in self.base.sources)


def scenario(scenario_seed: int) -> Scenario:
    return build_scenario(
        ScenarioConfig(
            seed=scenario_seed,
            universe=UniverseConfig(**UNIVERSE),
            corruption=CorruptionConfig(text_typo_rate=TYPO_RATE),
            **COVERAGE,
        )
    )


def corpus(seed: int, index: int) -> Corpus:
    first = 1009 * seed + 2 * index
    return Corpus(base=scenario(first), variant=scenario(first + 1))


def corpus_pool(seed: int, passes: int = 1) -> Tuple[List[Corpus], List[float]]:
    """The ``POOL`` corpora of ``seed``, generated ``passes`` times, plus
    the mean seconds per corpus of each pass."""
    seconds = []
    for _ in range(passes):
        started = time.perf_counter()
        corpora = [corpus(seed, index) for index in range(POOL)]
        seconds.append((time.perf_counter() - started) / POOL)
    return corpora, seconds
