"""In-memory span recorder and the wrapper installer that feeds it.

A span is ``(name, start, end, parent)``: the wall interval of one call
into a wrapped library function, and the index of the wrapped call that
was open on the same thread when it started (``-1`` for a root). Spans
are appended to flat arrays while the program runs and written out once,
at the end, as a ``.npz`` file; all arithmetic on them (self time, the
outermost time of a group) happens afterwards, in :func:`self_times` and
:func:`outermost_mask`.

Hot leaf calls that only need counting (millions of distance-row reads)
go through :meth:`Tracer.counting`, which bumps a counter and records no
span.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

Hook = Callable[["Tracer", int, Any, tuple, dict, Any], None]


class Tracer:
    """Append-only span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # ----------------------------------------------------------- recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def span(
        self,
        fn: Callable,
        name: str,
        *,
        pre: Optional[Callable[[tuple, dict], Any]] = None,
        post: Optional[Hook] = None,
    ) -> Callable:
        """*fn* wrapped to record one span per call.

        ``pre(args, kwargs)`` runs before the call and its return value is
        handed to ``post(tracer, span_index, state, args, kwargs, result)``
        after it (hooks read counters off the arguments or the result).
        """
        nid = self.name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            state = pre(args, kwargs) if pre is not None else None
            with tracer._lock:
                index = len(tracer.starts)
                tracer.name_ids.append(nid)
                tracer.parents.append(stack[-1] if stack else -1)
                tracer.ends.append(0.0)
                tracer.starts.append(clock())
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                stack.pop()
            if post is not None:
                post(tracer, index, state, args, kwargs, result)
            return result

        return wrapper

    def counting(self, fn: Callable, counter: str) -> Callable:
        """*fn* wrapped to bump *counter* per call, recording no span."""
        counters = self.counters
        counters.setdefault(counter, 0.0)
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counters[counter] += 1.0
            return fn(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------------- output

    def write(self, path: str) -> None:
        """Write every span and counter to *path* (``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            counters=np.array(json.dumps(self.counters)),
        )


class SpanSet:
    """Spans read back from a :meth:`Tracer.write` file."""

    def __init__(
        self,
        names: Sequence[str],
        name_ids: np.ndarray,
        parents: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        counters: Dict[str, float],
    ) -> None:
        self.names = list(names)
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.counters = dict(counters)
        self.durations = self.ends - self.starts
        self.self_time = self_times(self.parents, self.starts, self.ends)

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        with np.load(path) as data:
            return cls(
                [str(name) for name in data["names"]],
                data["name_ids"],
                data["parents"],
                data["starts"],
                data["ends"],
                json.loads(str(data["counters"])),
            )

    def ids_of(self, names: Sequence[str]) -> List[int]:
        return [i for i, name in enumerate(self.names) if name in names]

    def mask(self, names: Sequence[str]) -> np.ndarray:
        return np.isin(self.name_ids, self.ids_of(names))

    def counter(self, name: str) -> float:
        return float(self.counters.get(name, 0.0))


def self_times(
    parents: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children on one thread never overlap each other and lie inside their
    parent, so the covered part is the sum of their durations.
    """
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(
        starts, dtype=np.float64
    )
    covered = np.zeros_like(durations)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


def outermost_mask(
    parents: np.ndarray, in_group: np.ndarray
) -> np.ndarray:
    """Spans of the group with no ancestor in the same group, so the
    group's time is counted once however its calls nest. Parents always
    precede their children in the arrays."""
    parents = np.asarray(parents, dtype=np.int64)
    in_group = np.asarray(in_group, dtype=bool)
    under_group = np.zeros(len(parents), dtype=bool)
    for i, parent in enumerate(parents):
        if parent >= 0:
            under_group[i] = under_group[parent] or in_group[parent]
    return in_group & ~under_group


# --------------------------------------------------------------- patching


class Patcher:
    """Installs wrappers on library functions and methods, and removes
    them again.

    Module-level functions are also re-bound wherever another loaded module
    imported them by name (``from x import f``), including inside
    module-level dicts such as experiment registries.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._undo: List[Callable[[], None]] = []

    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == self.prefix or name.startswith(self.prefix + "."))
        ]

    def function(self, module, attr: str, wrap: Callable) -> None:
        original = getattr(module, attr)
        wrapper = wrap(original)
        for mod in self._modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(namespace, key, wrapper, original)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, wrapper, original)

    def method(self, cls, attr: str, wrap: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _set(self, mapping: dict, key, wrapper, original) -> None:
        mapping[key] = wrapper
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
