"""Per-layer timing wrappers, installed from the benchmark's own files.

``install()`` wraps public entry points of each measured layer and
returns a :class:`Ledger` that accumulates inclusive wall seconds and
call counts per layer metric; ``Ledger.uninstall()`` restores every
original. A nested call into the same metric (``add_object_links``
calling ``add_object_link``) is counted once. The edit-distance kernel
additionally counts its dynamic-programming cells, ``|a| * |b|``.

Wrappers live in the process that installs them. Work that a fork
worker does is invisible here; the batch workload reads it from the
program's own re-parented span tree instead
(:meth:`perfbench.measure.Raw.fold_worker_spans`).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

# metric -> [(module, "Class.method" or "function"), ...]
TIMED: Dict[str, List[Tuple[str, str]]] = {
    "discovery.discover_s": [("repro.discovery.pipeline", "discover_structure")],
    "linking.discover_s": [
        ("repro.linking.engine", "LinkDiscoveryEngine.discover_for"),
        ("repro.linking.engine", "LinkDiscoveryEngine.run_pair_specs"),
    ],
    "duplicates.detect_s": [
        ("repro.duplicates.detector", "DuplicateDetector.detect"),
        ("repro.duplicates.detector", "DuplicateDetector.detect_chunk"),
    ],
    "metadata.store_s": [
        ("repro.metadata.repository", "MetadataRepository." + name)
        for name in (
            "register_source", "refresh_source_data", "remove_source",
            "add_attribute_link", "add_object_link", "add_object_links",
            "remove_object_link",
        )
    ],
    "access.index_s": [
        ("repro.access.index", "InvertedIndex.add_pages"),
        ("repro.access.index", "InvertedIndex.remove_source"),
    ],
    "persist.save_s": [("repro.persist.snapshot", "SnapshotStore.write_full")],
}
EDIT_DISTANCE = ("repro.linking.editdistance", "levenshtein")


class Ledger:
    """Accumulated seconds and calls per metric, plus edit-distance cells."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.cells = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "cells": self.cells,
            }

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- wrapping ---------------------------------------------------------
    def _timed(self, metric: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, metric, 0)
            if depth:
                return original(*args, **kwargs)
            setattr(self._local, metric, 1)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                setattr(self._local, metric, 0)
                with self._lock:
                    self.seconds[metric] += elapsed
                    self.calls[metric] += 1

        return wrapper

    def _counted_levenshtein(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(a, b):
            with self._lock:
                self.calls["linking.editdistance"] += 1
                self.cells += len(a) * len(b)
            return original(a, b)

        return wrapper

    def _patch_attr(self, owner: Any, name: str, replacement: Any) -> None:
        previous = owner.__dict__[name]
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, previous))

    def _patch_function(self, module_name: str, name: str, make) -> None:
        """Rebind a module-level function everywhere repro imported it."""
        original = getattr(sys.modules[module_name], name)
        replacement = make(original)
        for module in list(sys.modules.values()):
            module_dict = getattr(module, "__dict__", None)
            if (
                module_dict is not None
                and getattr(module, "__name__", "").startswith("repro")
                and module_dict.get(name) is original
            ):
                self._patch_attr(module, name, replacement)


def _import_all() -> None:
    import repro.core  # noqa: F401 - loads every layer the wrappers touch
    import repro.dataimport  # noqa: F401
    import repro.persist.snapshot  # noqa: F401


def _importer_classes():
    from repro.dataimport.base import Importer

    pending, seen = [Importer], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "import_text" in cls.__dict__]


def install() -> Ledger:
    """Wrap every measured entry point; returns the live ledger."""
    _import_all()
    ledger = Ledger()
    for cls in _importer_classes():
        original = cls.__dict__["import_text"]
        ledger._patch_attr(
            cls, "import_text", ledger._timed("dataimport.import_s", original)
        )
    for metric, targets in TIMED.items():
        for module_name, dotted in targets:
            module = sys.modules[module_name]
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                cls = getattr(module, cls_name)
                ledger._patch_attr(
                    cls, attr, ledger._timed(metric, cls.__dict__[attr])
                )
            else:
                ledger._patch_function(
                    module_name, dotted,
                    lambda original, metric=metric: ledger._timed(metric, original),
                )
    ledger._patch_function(*EDIT_DISTANCE, ledger._counted_levenshtein)
    return ledger
