"""The asyncio planner service behind ``repro serve``.

One :class:`PlannerService` owns the resident-substrate LRU, the what-if
sessions, and a small thread executor where the CPU-bound solves run. The
request plane reuses the PR-2 resilience layer end to end: each job runs
under :func:`~repro.util.resilience.retry_call` with the server's
:class:`~repro.util.resilience.RetryPolicy` and per-request
``call_with_timeout`` bound, and every failure — malformed input, solver
error, timeout — comes back as a structured error response instead of a
dropped connection.

**One request at a time per substrate.** Each request runs as soon as it
arrives, as its own executor job, under the lock of its resident
:class:`~repro.service.substrates.SubstrateEntry`: the entry's
:class:`~repro.core.substrate.EngineCache` and the what-if planners over
it are single-threaded, and the lock keeps them so, while requests on
different substrates run side by side. The first request over a substrate
builds (or extends) the engines the later ones hit warm. Concurrent
requests for a substrate that is not resident wait on one build of it,
and a what-if session runs on the entry it pinned at ``open``, resident
or evicted. Placements are byte-identical to solving each request alone.
"""

from __future__ import annotations

import asyncio
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.planner import PlacementPlanner
from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.registry import get_solver
from repro.core.substrate import PlacementRequest
from repro.exceptions import ReproError, TaskError
from repro.netgen.pairs import select_important_pairs
from repro.service.protocol import (
    WHATIF_ACTIONS,
    ProtocolError,
    coerce_seed,
    encode_response,
    error_response,
    ok_response,
    parse_pairs,
    parse_request,
    parse_workload,
    require,
    workload_key,
)
from repro.service.substrates import SubstrateEntry, SubstrateLRU
from repro.types import NodePair
from repro.util.resilience import policy_for_retries, retry_call
from repro.util.serialization import TaskJournal, canonical_key

#: Longest request line a TCP connection accepts, in bytes (newline
#: excluded). 1 MiB holds a request with about 70,000 explicit pairs; a
#: longer line is answered with one ``ProtocolError`` and skipped, and the
#: connection stays open.
MAX_REQUEST_LINE_BYTES = 1 << 20


class PlannerService:
    """Long-lived placement planner over resident substrates.

    Args:
        max_substrates: LRU capacity of the resident-substrate registry.
        jobs: executor threads. Same-substrate work is always serialized
            (the engine cache is single-threaded by design); extra threads
            only help when several *different* substrates are hot.
        retries: extra attempts per failed request (PR-2 retry policy,
            deterministic backoff).
        task_timeout: per-request wall-clock bound, seconds; a request
            exceeding it is answered with a ``TaskTimeoutError`` error.
        journal_dir: when set, every completed ``place`` is journaled
            (crash-safe :class:`TaskJournal`, keyed by the full request
            recipe) and an identical request — including after a server
            restart pointed at the same directory — is restored instead of
            re-solved.
    """

    def __init__(
        self,
        *,
        max_substrates: int = 4,
        jobs: int = 1,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        journal_dir: Optional[str] = None,
    ) -> None:
        self.substrates = SubstrateLRU(max_substrates)
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, int(jobs)),
            thread_name_prefix="repro-serve",
        )
        self.policy = policy_for_retries(retries)
        self.task_timeout = task_timeout
        self.journal = (
            TaskJournal(journal_dir) if journal_dir is not None else None
        )
        self.sessions: Dict[str, Dict[str, Any]] = {}
        self.stop_event = asyncio.Event()
        # In-flight substrate builds by workload key, each held only until
        # it completes.
        self._builds: Dict[str, asyncio.Future] = {}
        self.op_counts: Dict[str, int] = {}
        self.error_count = 0
        self.restored_count = 0
        self.jobs_run = 0

    # --------------------------------------------------------- entry points

    async def handle_line(self, line: str) -> Dict[str, Any]:
        """One request line → one response object (never raises)."""
        request_id = None
        try:
            payload = parse_request(line)
            request_id = payload.get("id")
            return await self.handle(payload)
        except BaseException as exc:  # answered, not propagated
            self.error_count += 1
            if request_id is None:
                request_id = getattr(exc, "request_id", None)
            return error_response(request_id, exc)

    async def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One parsed request → one response object."""
        op = payload["op"]
        request_id = payload.get("id")
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        try:
            if op == "ping":
                return ok_response(request_id, {"pong": True})
            if op == "shutdown":
                self.stop_event.set()
                return ok_response(request_id, {"stopping": True})
            if op == "stats":
                return ok_response(request_id, self.stats())
            if op == "place":
                return ok_response(request_id, await self._op_place(payload))
            if op == "sigma":
                return ok_response(request_id, await self._op_sigma(payload))
            if op == "whatif":
                return ok_response(
                    request_id, await self._op_whatif(payload)
                )
            raise ProtocolError(f"unknown op {op!r}")
        except BaseException as exc:
            self.error_count += 1
            return error_response(request_id, exc)

    # ------------------------------------------------- substrates and jobs

    async def _resident(self, spec: Dict[str, Any]) -> SubstrateEntry:
        """The resident entry for *spec*, built on a miss.

        Concurrent requests for a spec that is not resident wait on one
        build; only the request that starts it counts as a miss.
        """
        key = workload_key(spec)
        build = self._builds.get(key)
        if build is None:
            entry = self.substrates.get(spec)
            if entry is not None:
                return entry
            build = self._builds[key] = asyncio.create_task(
                self._build(key, spec)
            )
        return await build

    async def _build(self, key: str, spec: Dict[str, Any]) -> SubstrateEntry:
        try:
            built = await asyncio.get_running_loop().run_in_executor(
                self.executor, self.substrates.build, spec
            )
            return self.substrates.put(built)
        finally:
            del self._builds[key]

    async def _on_entry(
        self, entry: SubstrateEntry, fn: Callable[[SubstrateEntry], Any]
    ) -> Any:
        """Run ``fn(entry)`` as one executor job, after every job queued
        before it on *entry* (whose engine cache is single-threaded)."""
        async with entry.lock:
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    self.executor, self._call_resilient, entry, fn
                )
            finally:
                entry.requests_served += 1
                self.jobs_run += 1

    def _call_resilient(self, entry: SubstrateEntry, fn: Callable) -> Any:
        """``fn(entry)`` under the server's retry policy and per-request
        timeout, when configured."""
        if self.task_timeout is None and self.policy.attempts == 1:
            return fn(entry)  # fast path: errors keep their own type
        try:
            return retry_call(
                fn,
                (entry,),
                policy=self.policy,
                key=entry.key,
                timeout=self.task_timeout,
                retry_on=(Exception,),
            )
        except TaskError as exc:
            cause = exc.__cause__
            if isinstance(cause, ReproError) and not isinstance(
                cause, TaskError
            ):
                # Deterministic domain errors (bad pairs, unknown solver)
                # exhausted the retry budget by construction; surface the
                # original, more useful, error type.
                raise cause from None
            raise

    # -------------------------------------------------------------- ops

    def _build_request(
        self,
        payload: Dict[str, Any],
        entry: SubstrateEntry,
        *,
        what: str,
    ) -> Tuple[PlacementRequest, List[NodePair]]:
        """The per-request half: explicit pairs or sampled ones."""
        p_threshold = payload.get("p_threshold")
        d_threshold = payload.get("d_threshold")
        k = require(payload, "k", int, what)
        raw_pairs = payload.get("pairs")
        if raw_pairs is not None:
            pairs: List[NodePair] = parse_pairs(raw_pairs, what)
        else:
            m = require(payload, "m", int, what)
            if p_threshold is None:
                raise ProtocolError(
                    f"{what}: sampling pairs (no explicit 'pairs') "
                    "requires p_threshold"
                )
            pairs = select_important_pairs(
                entry.workload.graph,
                m,
                p_threshold,
                seed=coerce_seed(payload.get("pair_seed")),
                oracle=entry.workload.oracle,
            )
        request = PlacementRequest(
            pairs,
            k,
            p_threshold=p_threshold,
            d_threshold=d_threshold,
            require_initially_unsatisfied=bool(
                payload.get("require_initially_unsatisfied", True)
            ),
            allow_degenerate=bool(payload.get("allow_degenerate", False)),
        )
        return request, pairs

    async def _op_place(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        spec = parse_workload(payload)
        solver_name = payload.get("solver", "sandwich")
        if not isinstance(solver_name, str):
            raise ProtocolError("place: solver must be a string")
        solver = get_solver(solver_name)  # fail fast on unknown names
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("place: params must be an object")
        seed = coerce_seed(payload.get("seed"))

        journal_key = None
        if self.journal is not None:
            journal_key = self._place_journal_key(payload, spec)
            try:
                restored = self.journal.load(journal_key)
            except KeyError:
                restored = None
            if restored is not None:
                self.restored_count += 1
                return {**restored, "restored": True}

        def job(entry: SubstrateEntry) -> Dict[str, Any]:
            request, _ = self._build_request(payload, entry, what="place")
            instance = MSCInstance.from_parts(entry.substrate, request)
            result = solver(instance, seed=seed, **params)
            return {
                "algorithm": result.algorithm,
                "edges": [[int(u), int(w)] for u, w in result.edges],
                "sigma": int(result.sigma),
                "satisfied": [bool(flag) for flag in result.satisfied],
                "evaluations": int(result.evaluations),
                "num_pairs": request.m,
                "pairs": [[int(u), int(w)] for u, w in request.pairs],
                "substrate": entry.substrate.fingerprint,
            }

        result = await self._on_entry(await self._resident(spec), job)
        if self.journal is not None and journal_key is not None:
            self.journal.put(journal_key, result)
        return result

    @staticmethod
    def _place_journal_key(
        payload: Dict[str, Any], spec: Dict[str, Any]
    ) -> List:
        recipe = {
            field: payload.get(field)
            for field in (
                "solver", "k", "p_threshold", "d_threshold", "pairs",
                "m", "pair_seed", "seed", "params",
                "require_initially_unsatisfied", "allow_degenerate",
            )
            if payload.get(field) is not None
        }
        return ["place", canonical_key(spec), canonical_key(recipe)]

    async def _op_sigma(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        spec = parse_workload(payload)
        edges = parse_pairs(require(payload, "edges", list, "sigma"), "sigma")
        pairs = parse_pairs(require(payload, "pairs", list, "sigma"), "sigma")
        p_threshold = payload.get("p_threshold")
        d_threshold = payload.get("d_threshold")

        def job(entry: SubstrateEntry) -> Dict[str, Any]:
            request = PlacementRequest(
                pairs,
                len(edges),
                p_threshold=p_threshold,
                d_threshold=d_threshold,
                require_initially_unsatisfied=False,
                allow_degenerate=True,
            )
            instance = MSCInstance.from_parts(entry.substrate, request)
            graph = instance.graph
            index_pairs = []
            for u, w in edges:
                if not graph.has_node(u) or not graph.has_node(w):
                    raise ProtocolError(
                        f"sigma: edge ({u!r}, {w!r}) references unknown "
                        "node(s)"
                    )
                index_pairs.append(
                    tuple(sorted((graph.node_index(u), graph.node_index(w))))
                )
            evaluator = SigmaEvaluator(instance)
            satisfied = evaluator.satisfied(index_pairs)
            return {
                "sigma": int(sum(satisfied)),
                "satisfied": [bool(flag) for flag in satisfied],
                "num_pairs": request.m,
                "substrate": entry.substrate.fingerprint,
            }

        return await self._on_entry(await self._resident(spec), job)

    async def _op_whatif(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        action = payload.get("action", "summary")
        if action not in WHATIF_ACTIONS:
            raise ProtocolError(
                f"unknown whatif action {action!r}; "
                f"available: {', '.join(WHATIF_ACTIONS)}"
            )
        name = require(payload, "session", str, "whatif")

        if action == "open":
            spec = parse_workload(payload)

            def open_job(entry: SubstrateEntry) -> Dict[str, Any]:
                request, _ = self._build_request(
                    payload, entry, what="whatif open"
                )
                planner = PlacementPlanner.from_parts(
                    entry.substrate, request
                )
                self.sessions[name] = {
                    "planner": planner,
                    "entry": entry,  # pins the substrate across eviction
                }
                return {
                    "session": name,
                    "m": request.m,
                    "k": request.k,
                    "sigma": planner.sigma,
                }

            return await self._on_entry(await self._resident(spec), open_job)

        session = self.sessions.get(name)
        if session is None:
            raise ProtocolError(f"whatif: no open session {name!r}")
        if action == "close":
            del self.sessions[name]
            return {"session": name, "closed": True}

        planner: PlacementPlanner = session["planner"]

        def session_job(entry: SubstrateEntry) -> Dict[str, Any]:
            return self._whatif_action(planner, action, payload, name)

        # The session's own entry, resident or evicted: its planner works
        # over that entry's engine cache, serialized with the entry's jobs.
        return await self._on_entry(session["entry"], session_job)

    def _whatif_action(
        self,
        planner: PlacementPlanner,
        action: str,
        payload: Dict[str, Any],
        name: str,
    ) -> Dict[str, Any]:
        def edge_args() -> Tuple[int, int]:
            u = require(payload, "u", int, f"whatif {action}")
            v = require(payload, "v", int, f"whatif {action}")
            return u, v

        if action == "add":
            sigma = planner.add(*edge_args())
        elif action == "remove":
            sigma = planner.remove(*edge_args())
        elif action == "undo":
            undone = planner.undo()
            return {
                "session": name,
                "undone": undone,
                "sigma": planner.sigma,
            }
        elif action == "reset":
            planner.reset()
            sigma = planner.sigma
        elif action == "adopt":
            planner.adopt(
                parse_pairs(
                    require(payload, "edges", list, "whatif adopt"),
                    "whatif adopt",
                )
            )
            sigma = planner.sigma
        elif action == "suggest":
            count = payload.get("count", 5)
            if not isinstance(count, int) or count < 1:
                raise ProtocolError(
                    "whatif suggest: count must be a positive int"
                )
            return {
                "session": name,
                "suggestions": [
                    {"edge": [int(u), int(v)], "sigma": int(value)}
                    for (u, v), value in planner.suggest(count=count)
                ],
            }
        elif action == "apply_best":
            edge = planner.apply_best()
            return {
                "session": name,
                "edge": None if edge is None else [int(edge[0]), int(edge[1])],
                "sigma": planner.sigma,
            }
        elif action == "summary":
            return {
                "session": name,
                "summary": planner.summary(),
                "sigma": planner.sigma,
                "edges": [
                    [int(u), int(v)] for u, v in planner.edges
                ],
                "remaining_budget": planner.remaining_budget,
                "over_budget": planner.over_budget,
            }
        else:  # pragma: no cover - guarded by WHATIF_ACTIONS
            raise ProtocolError(f"unknown whatif action {action!r}")
        return {
            "session": name,
            "sigma": int(sigma),
            "edges": [[int(u), int(v)] for u, v in planner.edges],
        }

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        return {
            "substrates": self.substrates.stats(),
            "ops": dict(self.op_counts),
            "errors": self.error_count,
            "restored": self.restored_count,
            "sessions": sorted(self.sessions),
            # Every request is its own executor job; perfbench's traced
            # serve run reads these three counters.
            "batching": {
                "batches": self.jobs_run,
                "requests": self.jobs_run,
                "max_batch_size": min(self.jobs_run, 1),
            },
            "executor_jobs": self.executor._max_workers,
            "retries": self.policy.attempts - 1,
            "task_timeout": self.task_timeout,
        }

    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


# ------------------------------------------------------------- transports


async def _respond(
    response: Dict[str, Any],
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
) -> None:
    async with write_lock:
        writer.write(encode_response(response))
        try:
            await writer.drain()
        except ConnectionError:
            pass


async def _serve_line(
    service: PlannerService,
    line: bytes,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
) -> None:
    response = await service.handle_line(line.decode("utf-8", "replace"))
    await _respond(response, writer, write_lock)


async def _skip_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Discard the rest of an over-long line, through its newline or to
    the end of the stream. *consumed* is the newline-free prefix already
    buffered (a ``LimitOverrunError``'s ``consumed``)."""
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


async def _handle_connection(
    service: PlannerService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: each line is served as its own task, so a
    slow request does not hold up the ones behind it, and each response
    is written as its request completes, out of request order."""
    write_lock = asyncio.Lock()
    pending = set()
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # end of stream: b"" or a last line
            except asyncio.LimitOverrunError as exc:
                await _skip_line(reader, exc.consumed)
                service.error_count += 1
                oversized = ProtocolError(
                    "request line longer than "
                    f"{MAX_REQUEST_LINE_BYTES} bytes"
                )
                await _respond(
                    error_response(None, oversized), writer, write_lock
                )
                continue
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.create_task(
                _serve_line(service, line, writer, write_lock)
            )
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass


async def serve_socket(
    service: PlannerService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Serve JSONL over TCP until a ``shutdown`` request arrives."""
    connections = set()

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        connections.add((task, writer))
        try:
            await _handle_connection(service, reader, writer)
        finally:
            connections.discard((task, writer))

    server = await asyncio.start_server(
        handler, host, port, limit=MAX_REQUEST_LINE_BYTES
    )
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    print(f"repro-serve listening on {bound[0]}:{bound[1]}", flush=True)
    async with server:
        await service.stop_event.wait()
        # Drain: close transports so blocked readers see EOF and each
        # handler finishes (flushing its in-flight responses) cleanly.
        for _, writer in list(connections):
            writer.close()
        if connections:
            await asyncio.gather(
                *(task for task, _ in connections),
                return_exceptions=True,
            )
    service.close()


async def serve_stdio(service: PlannerService) -> None:
    """Serve JSONL over stdin/stdout (one-process pipelines, CI smokes)."""
    loop = asyncio.get_running_loop()
    out_lock = asyncio.Lock()
    pending = set()

    async def respond(line: str) -> None:
        response = await service.handle_line(line)
        async with out_lock:
            sys.stdout.write(
                encode_response(response).decode("utf-8")
            )
            sys.stdout.flush()

    while not service.stop_event.is_set():
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break
        if not line.strip():
            continue
        task = asyncio.create_task(respond(line))
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    service.close()


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    stdio: bool = False,
    **service_kwargs: Any,
) -> int:
    """Blocking entry point for the CLI ``serve`` subcommand."""
    async def main() -> None:
        service = PlannerService(**service_kwargs)
        if stdio:
            await serve_stdio(service)
        else:
            await serve_socket(service, host, port)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0
