"""Zero-copy numpy sharing for the experiment fan-out.

Large read-only arrays — an instance's APSP matrix or sparse row block,
the base graph's CSR adjacency — are identical in every worker of a sweep.
Pickling them per task (the default ``ProcessPoolExecutor`` transport)
copies them once per submission; this module instead publishes them once
into POSIX shared memory (:mod:`multiprocessing.shared_memory`) and lets
workers attach read-only views at pool start-up.

Lifecycle
---------

* The parent calls :func:`publish` with ``{key: {name: array}}``; each
  array is copied once into a fresh segment named
  ``mscshm_<pid>_<seq>_<n>`` and the returned :class:`Publication` carries
  the picklable specs workers need to attach.
* :func:`attach_worker` runs in the pool initializer: it maps each
  segment read-only. Pool workers share the parent's resource-tracker
  process (multiprocessing hands the tracker fd to every child), so the
  attach-side ``register`` is a set no-op there — ownership and the
  unlink responsibility stay with the parent, and a dying worker cannot
  take a segment down with it.
* ``Publication.close()`` (called by the fan-out's ``finally``) closes and
  unlinks every segment — covering normal teardown, worker crashes
  (the pool is rebuilt, the segments survive), and ``KeyboardInterrupt``.
* If the parent is SIGKILLed before ``close()``, its resource tracker — a
  separate process that survives it — unlinks the leaked segments once
  the orphaned pool workers exit, so ``/dev/shm`` is clean even after a
  hard kill (exercised by the chaos tests). :func:`publish` registers
  each name with the tracker *before* creating the segment, so no kill
  instant leaves a segment the tracker does not know about.

The registry is uniform across execution modes: :func:`get` serves
worker-attached views when running in a pool and the parent's original
arrays when running serially, so consumers resolve a key the same way in
both paths. :func:`memo` adds the per-process object memo on top — e.g.
"the oracle for instance digest X" is constructed from the shared arrays
once per process, not once per task.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Prefix of every segment this module creates; the chaos tests glob
#: ``/dev/shm/mscshm_<pid>_*`` to assert a killed run leaked nothing.
SEGMENT_PREFIX = "mscshm"

#: Parent-side originals, registered for the serial path.
_LOCAL: Dict[str, Dict[str, np.ndarray]] = {}

#: Worker-side read-only views onto attached segments.
_ATTACHED: Dict[str, Dict[str, np.ndarray]] = {}

#: Worker-side segment handles (kept alive for the process lifetime).
_WORKER_SEGMENTS: List[SharedMemory] = []

#: Per-process object memo (see :func:`memo`).
_MEMO: Dict[Any, Any] = {}

_SEQUENCE = 0


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable description of one published array."""

    segment: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass
class Publication:
    """Parent-side handle on a set of published segments."""

    payload: Dict[str, Dict[str, SharedArraySpec]]
    _segments: List[SharedMemory] = field(default_factory=list)

    def segment_names(self) -> List[str]:
        return [segment.name for segment in self._segments]

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()


def _next_segment_name() -> str:
    global _SEQUENCE
    _SEQUENCE += 1
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{_SEQUENCE}"


def _create_segment(size: int) -> SharedMemory:
    """A fresh segment the resource tracker knows about from the start.

    ``SharedMemory(create=True)`` registers with the tracker only after
    ``shm_open``, so a kill in between would leak the segment for good;
    registering the name first closes that window. If creation fails,
    the tracker merely warns about the unknown name at exit.
    """
    name = _next_segment_name()
    # "/" + name is the POSIX name SharedMemory itself registers, so its
    # own registration is a no-op and close() unregisters both at once.
    resource_tracker.register("/" + name, "shared_memory")
    return SharedMemory(create=True, size=size, name=name)


def publish(
    shared: Mapping[str, Mapping[str, np.ndarray]]
) -> Publication:
    """Copy *shared* arrays into fresh shared-memory segments.

    Returns a :class:`Publication` whose ``payload`` is picklable (pass it
    to :func:`attach_worker` via the pool initializer) and whose
    :meth:`~Publication.close` releases the segments.
    """
    publication = Publication(payload={})
    try:
        for key, arrays in shared.items():
            specs: Dict[str, SharedArraySpec] = {}
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = _create_segment(max(array.nbytes, 1))
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view[...] = array
                publication._segments.append(segment)
                specs[name] = SharedArraySpec(
                    segment=segment.name,
                    shape=tuple(array.shape),
                    dtype=array.dtype.str,
                )
            publication.payload[key] = specs
    except BaseException:
        publication.close()
        raise
    return publication


def attach_worker(
    payload: Mapping[str, Mapping[str, SharedArraySpec]]
) -> None:
    """Pool initializer: map every published segment read-only.

    Workers share the parent's resource tracker, so attaching here does
    not transfer unlink responsibility — the parent (or, after a hard
    kill, the surviving tracker process) releases the segments.
    """
    for key, specs in payload.items():
        arrays: Dict[str, np.ndarray] = {}
        for name, spec in specs.items():
            segment = SharedMemory(name=spec.segment)
            _WORKER_SEGMENTS.append(segment)
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
            )
            view.setflags(write=False)
            arrays[name] = view
        _ATTACHED[key] = arrays


def register_local(
    shared: Mapping[str, Mapping[str, np.ndarray]]
) -> None:
    """Make *shared* resolvable via :func:`get` in this process (the
    serial path and the pool parent — no segments involved)."""
    for key, arrays in shared.items():
        _LOCAL[key] = dict(arrays)


def unregister_local(keys: Mapping[str, Any]) -> None:
    """Undo :func:`register_local` for *keys* (a mapping or iterable)."""
    for key in list(keys):
        _LOCAL.pop(key, None)


def maybe_get(key: str) -> Optional[Dict[str, np.ndarray]]:
    """The arrays published under *key*, or ``None`` when unknown here.

    Worker-attached views win over parent-local originals (a worker never
    holds both; the parent resolves its own originals).
    """
    arrays = _ATTACHED.get(key)
    if arrays is not None:
        return arrays
    return _LOCAL.get(key)


def get(key: str) -> Dict[str, np.ndarray]:
    """Like :func:`maybe_get` but raises ``KeyError`` when absent."""
    arrays = maybe_get(key)
    if arrays is None:
        raise KeyError(f"no shared arrays published under {key!r}")
    return arrays


def memo(key: Any, factory: Callable[[], Any]) -> Any:
    """Process-level memo: build once per process, reuse across tasks.

    This is what keeps a mode×severity sweep from rebuilding the same
    oracle/harness in every cell a worker handles — the first task pays
    the construction, subsequent tasks in the same process reuse it.
    """
    if key not in _MEMO:
        _MEMO[key] = factory()
    return _MEMO[key]


def clear_memo() -> None:
    """Drop the process-level memo (test isolation)."""
    _MEMO.clear()


def attached_keys() -> List[str]:
    """Keys this process can resolve (attached + local), for diagnostics."""
    return sorted(set(_ATTACHED) | set(_LOCAL))
