"""Request mix, arrival schedule and the asyncio load generator for the
serve workload.

The mix and the schedule are pure functions of the seed, so a run can be
repeated request for request. The generator keeps at most two TCP
connections open (one per core of the reference box) and multiplexes
requests over them by ``id``; the server answers each line as its own
task, so several requests can be in flight on one connection.

Open loop: items are due at evenly spaced times over the phase, and each
is sent when due whatever the server is doing. A request's latency runs
from its due time, so a stall also charges the requests queued behind it,
and the generator's own lateness (send time minus due time) is recorded
separately. Closed loop: a fixed list of items is drained by a fixed
number of virtual clients, each sending its next item only when the
previous one has been answered.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One cycle of the mix, in arrival order: per 20 items, 5 sandwich places
#: on the heavy substrate, 9 on the light one, 3 σ audits of earlier
#: placements and 3 what-if sessions (alternating substrates). Heavy
#: places are spread evenly through the cycle, so at the offered open-loop
#: rate they never queue behind each other by accident of order: the tail
#: then measures the service, not the shuffle.
CYCLE = (
    ("place", "heavy"), ("place", "light"), ("session", ""),
    ("place", "light"), ("place", "heavy"), ("place", "light"),
    ("sigma", ""), ("place", "light"), ("place", "heavy"),
    ("place", "light"), ("session", ""), ("place", "light"),
    ("place", "heavy"), ("sigma", ""), ("place", "light"),
    ("place", "light"), ("place", "heavy"), ("place", "light"),
    ("session", ""), ("sigma", ""),
)

#: Requests one what-if session sends: open, suggest, apply_best, close.
SESSION_STEPS = ("open", "suggest", "apply_best", "close")


@dataclass(frozen=True)
class Item:
    """One unit of the mix: a user action of one or more requests.

    ``recipe`` indexes the substrate's request pool; a ``sigma`` item
    audits the placement returned for the earlier item at ``target``.
    """

    kind: str
    substrate: str
    recipe: int
    target: int = -1

    @property
    def requests(self) -> int:
        return len(SESSION_STEPS) if self.kind == "session" else 1


def make_mix(rng: random.Random, count: int, pool_size: int) -> List[Item]:
    """*count* items following :data:`CYCLE`; the seeded *rng* picks each
    item's recipe (cycling through the pool in shuffled order) and each
    audit's target, an earlier placement.

    The order of kinds is the same for every seed, so every seed asks for
    the same amount and interleaving of work; only the inputs differ.
    """
    recipes: Dict[Tuple[str, str], List[int]] = {}
    items: List[Item] = []
    sessions = 0
    for index in range(count):
        kind, substrate = CYCLE[index % len(CYCLE)]
        if kind == "sigma":
            places = [i for i, item in enumerate(items)
                      if item.kind == "place"]
            target = places[rng.randrange(len(places))]
            audited = items[target]
            items.append(
                Item("sigma", audited.substrate, audited.recipe, target)
            )
            continue
        if kind == "session":
            substrate = "heavy" if sessions % 2 == 0 else "light"
            sessions += 1
        cycle = recipes.setdefault((kind, substrate), [])
        if not cycle:
            cycle.extend(rng.sample(range(pool_size), pool_size))
        items.append(Item(kind, substrate, cycle.pop()))
    return items


def open_loop_schedule(
    seed: int, duration_s: float, min_requests: int, pool_size: int
) -> Tuple[List[Item], List[float]]:
    """Items and their due offsets (seconds from phase start): the
    fewest whole cycles of the mix holding at least *min_requests*
    requests, spread evenly over *duration_s*."""
    per_cycle = sum(Item(kind, sub, 0).requests for kind, sub in CYCLE)
    count = len(CYCLE) * math.ceil(min_requests / per_cycle)
    items = make_mix(random.Random(f"open-loop:{seed}"), count, pool_size)
    step = duration_s / count
    return items, [i * step for i in range(count)]


def closed_loop_items(seed: int, count: int, pool_size: int) -> List[Item]:
    return make_mix(random.Random(f"closed-loop:{seed}"), count, pool_size)


# ------------------------------------------------------------ transport


class Connection:
    """One JSON-lines TCP connection with responses matched by ``id``."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._reading = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            host, port, limit=1 << 24
        )
        return cls(reader, writer)

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        line = json.dumps({**payload, "id": request_id}) + "\n"
        self._writer.write(line.encode("utf-8"))
        await self._writer.drain()
        return await future

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("connection closed mid-request")
                    )
            self._pending.clear()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        await self._reading


# ------------------------------------------------------------- phases


@dataclass
class Record:
    """One request as the generator saw it (times from perf_counter)."""

    phase: str
    item: int
    kind: str
    substrate: str
    recipe: int
    step: str
    due: float
    sent: float
    done: float
    ok: bool
    payload: Dict[str, Any]
    result: Any

    @property
    def latency_ms(self) -> float:
        """From due time to answer; a failed request exceeds every limit."""
        return (self.done - self.due) * 1e3 if self.ok else math.inf


class LoadGenerator:
    """Sends :class:`Item` lists to a running planner service.

    Args:
        payloads: ``payloads(item, step, context)`` builds the request for
            one step of *item*; *context* carries the audited placement
            (``sigma``) or the session name (``session``).
    """

    def __init__(
        self,
        connections: Sequence[Connection],
        payloads: Callable[[Item, str, Dict[str, Any]], Dict[str, Any]],
    ) -> None:
        self.connections = list(connections)
        self.payloads = payloads
        self.records: List[Record] = []

    async def _send(
        self, phase: str, index: int, item: Item, step: str,
        context: Dict[str, Any], due: float, connection: Connection,
    ) -> Record:
        payload = self.payloads(item, step, context)
        sent = time.perf_counter()
        try:
            response = await connection.request(payload)
            ok = bool(response.get("ok"))
            result = response.get("result") if ok else response.get("error")
        except (ConnectionError, OSError, ValueError) as exc:
            ok, result = False, {"type": type(exc).__name__,
                                 "message": str(exc)}
        record = Record(
            phase, index, item.kind, item.substrate, item.recipe, step,
            due, sent, time.perf_counter(), ok, payload, result,
        )
        self.records.append(record)
        return record

    async def _execute(
        self, phase: str, index: int, item: Item, due: float,
        connection: Connection, placed: Dict[int, asyncio.Future],
    ) -> None:
        done = placed[index]
        try:
            if item.kind == "place":
                record = await self._send(
                    phase, index, item, "place", {}, due, connection
                )
                done.set_result(record.result if record.ok else None)
            elif item.kind == "sigma":
                audited = await placed[item.target]
                if audited is None:
                    self.records.append(Record(
                        phase, index, item.kind, item.substrate,
                        item.recipe, "sigma", due, due, time.perf_counter(),
                        False, {}, {"type": "AuditTargetFailed"},
                    ))
                else:
                    await self._send(
                        phase, index, item, "sigma",
                        {"placement": audited}, due, connection,
                    )
            else:
                context = {"session": f"{phase}-{index}"}
                for step in SESSION_STEPS:
                    record = await self._send(
                        phase, index, item, step, context, due, connection
                    )
                    if not record.ok:
                        break
                    due = record.done
        finally:
            if not done.done():
                done.set_result(None)

    async def open_loop(
        self, items: Sequence[Item], offsets: Sequence[float]
    ) -> Tuple[float, float]:
        """Send each item at its due offset; returns the phase window."""
        loop = asyncio.get_running_loop()
        placed = {i: loop.create_future() for i in range(len(items))}
        start = time.perf_counter() + 0.05
        tasks = []
        for index, (item, offset) in enumerate(zip(items, offsets)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            connection = self.connections[index % len(self.connections)]
            tasks.append(loop.create_task(self._execute(
                "open", index, item, due, connection, placed
            )))
        await asyncio.gather(*tasks)
        return start, time.perf_counter()

    async def closed_loop(
        self, items: Sequence[Item], clients: int
    ) -> Tuple[float, float]:
        """Drain *items* with *clients* closed-loop clients; returns the
        phase window."""
        loop = asyncio.get_running_loop()
        placed = {i: loop.create_future() for i in range(len(items))}
        queue = list(enumerate(items))
        queue.reverse()

        async def client(number: int) -> None:
            connection = self.connections[number % len(self.connections)]
            while queue:
                index, item = queue.pop()
                await self._execute(
                    "closed", index, item, time.perf_counter(),
                    connection, placed,
                )

        start = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(clients)))
        return start, time.perf_counter()


def phase_records(records: Sequence[Record], phase: str) -> List[Record]:
    return [record for record in records if record.phase == phase]


def generator_lag_ms(records: Sequence[Record]) -> List[float]:
    """How late each item's first request left, against its due time.
    Audits are left out: they may wait on purpose for the placement they
    audit."""
    return [
        (record.sent - record.due) * 1e3
        for record in records
        if record.step in ("place", "open")
    ]


def phase_counts(records: Sequence[Record]) -> Dict[str, int]:
    sent = len(records)
    ok = sum(1 for record in records if record.ok)
    return {"sent": sent, "ok": ok, "failed": sent - ok}


def first_failure(records: Sequence[Record]) -> Optional[Record]:
    return next((record for record in records if not record.ok), None)
