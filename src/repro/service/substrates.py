"""Resident-substrate registry: an LRU of warm workload substrates.

The expensive half of every request — graph generation, APSP/label
construction, engine-cache warmup — is keyed entirely by the workload
recipe, so the service keeps one :class:`~repro.core.substrate.Substrate`
per distinct spec and evicts least-recently-used entries beyond
``maxsize``. Eviction is safe by construction: substrates are hashable by
content, a rebuilt substrate is equal to the evicted one, and placements
over it are byte-identical (covered by the serve round-trip tests).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.core.substrate import Substrate
from repro.experiments.workloads import (
    Workload,
    gowalla_workload,
    rg_workload,
)
from repro.service.protocol import ProtocolError, workload_key


class SubstrateEntry:
    """One resident substrate plus its provenance and usage counters.

    ``lock`` admits one request at a time to the entry: its engine cache
    and the what-if planners over it are single-threaded. The entry is
    built on an executor thread; the lock binds to the event loop on its
    first contended use.
    """

    def __init__(
        self, key: str, spec: Dict[str, Any], workload: Workload,
        build_seconds: float,
    ) -> None:
        self.key = key
        self.spec = spec
        self.workload = workload
        self.substrate: Substrate = workload.substrate()
        self.build_seconds = build_seconds
        self.requests_served = 0
        self.lock = asyncio.Lock()

    def stats(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "build_seconds": round(self.build_seconds, 4),
            "requests_served": self.requests_served,
            **self.substrate.stats(),
        }


def build_workload(spec: Dict[str, Any]) -> Workload:
    """Materialize the workload a normalized spec describes."""
    kind = spec["kind"]
    if kind == "rg":
        return rg_workload(
            seed=spec["seed"],
            n=spec["n"],
            radius=spec["radius"],
            max_link_failure=spec["max_link_failure"],
        )
    if kind == "gowalla":
        return gowalla_workload(seed=spec["seed"])
    raise ProtocolError(f"unknown workload kind {kind!r}")


class SubstrateLRU:
    """LRU of :class:`SubstrateEntry` keyed by canonical workload spec.

    Not thread-safe by itself — the service serializes access per event
    loop (builds happen in the executor, but registration and lookup stay
    on the loop thread).
    """

    def __init__(self, maxsize: int = 4) -> None:
        if maxsize < 1:
            raise ProtocolError("substrate LRU needs maxsize >= 1")
        self.maxsize = int(maxsize)
        self._store: "OrderedDict[str, SubstrateEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, spec: Dict[str, Any]) -> Optional[SubstrateEntry]:
        """The resident entry for *spec*, refreshed as most-recent, or
        ``None`` (callers build via :meth:`put`)."""
        key = workload_key(spec)
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry

    def build(self, spec: Dict[str, Any]) -> SubstrateEntry:
        """Build a fresh entry for *spec* (runs the workload generator and
        oracle construction — the cold path; call off the event loop)."""
        start = time.perf_counter()
        workload = build_workload(spec)
        return SubstrateEntry(
            workload_key(spec), spec, workload,
            time.perf_counter() - start,
        )

    def put(self, entry: SubstrateEntry) -> SubstrateEntry:
        """Register *entry*, evicting LRU entries beyond ``maxsize``.

        If an equal-keyed entry is already resident, the resident one wins.
        """
        resident = self._store.get(entry.key)
        if resident is not None:
            self._store.move_to_end(entry.key)
            return resident
        self._store[entry.key] = entry
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1
        return entry

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, spec: Dict[str, Any]) -> bool:
        return workload_key(spec) in self._store

    def stats(self) -> Dict[str, Any]:
        return {
            "maxsize": self.maxsize,
            "resident": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": [
                entry.stats() for entry in self._store.values()
            ],
        }
