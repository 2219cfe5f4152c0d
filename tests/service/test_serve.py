"""Round-trip tests for ``repro serve``: a live service answering over TCP.

The contract under test: a long-lived server answering concurrent clients
returns placements **byte-identical** to offline library solves — across
concurrent requests, substrate LRU eviction/rebuild, and journal restore. Requests on one resident substrate run one at a time, a cold
substrate is built once however many requests wait on it, and a what-if
session runs on the substrate it pinned. Malformed requests are answered
with structured errors and never take the server down.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.core.registry import solve
from repro.experiments.workloads import rg_workload
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import (
    MAX_REQUEST_LINE_BYTES,
    PlannerService,
    serve_socket,
)
from repro.service.substrates import SubstrateLRU, build_workload

WL_A = {"kind": "rg", "seed": 1, "n": 80}
WL_B = {"kind": "rg", "seed": 2, "n": 80}
P_T = 0.1


@contextmanager
def running_service(**service_kwargs):
    """A PlannerService on an ephemeral port, torn down afterwards."""
    ready = {}
    started = threading.Event()

    def run():
        async def main():
            service = PlannerService(**service_kwargs)
            await serve_socket(
                service,
                "127.0.0.1",
                0,
                ready=lambda host, port: (
                    ready.update(port=port), started.set(),
                ),
            )

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(30), "server did not start"
    try:
        yield ready["port"]
    finally:
        try:
            with ServiceClient(port=ready["port"], timeout=10) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(10)


@pytest.fixture(scope="module")
def server_port():
    with running_service(max_substrates=2, jobs=2) as port:
        yield port


def offline_place(spec, solver, k, m, pair_seed, seed):
    """What the service must return, computed the offline way."""
    workload = rg_workload(
        seed=spec["seed"], n=spec["n"], radius=spec.get("radius", 0.2),
        max_link_failure=spec.get("max_link_failure", 0.08),
    )
    instance = workload.instance(P_T, m=m, k=k, seed=pair_seed)
    result = solve(solver, instance, seed=seed)
    return {
        "edges": [[int(u), int(w)] for u, w in result.edges],
        "sigma": int(result.sigma),
        "satisfied": [bool(flag) for flag in result.satisfied],
        "pairs": [[int(u), int(w)] for u, w in instance.pairs],
    }


def served_subset(result):
    return {
        field: result[field]
        for field in ("edges", "sigma", "satisfied", "pairs")
    }


class TestRoundTrip:
    def test_place_matches_offline_byte_identical(self, server_port):
        with ServiceClient(port=server_port) as client:
            served = client.place(
                WL_A, solver="sandwich", k=3, m=10,
                p_threshold=P_T, pair_seed=7, seed=11,
            )
        expected = offline_place(WL_A, "sandwich", 3, 10, 7, 11)
        assert json.dumps(served_subset(served), sort_keys=True) == (
            json.dumps(expected, sort_keys=True)
        )

    def test_concurrent_clients_all_byte_identical(self, server_port):
        jobs = [
            (WL_A, "sandwich", 3, 10, 7, 11),
            (WL_A, "ea", 3, 10, 7, 11),
            (WL_A, "sandwich", 2, 8, 3, 5),
            (WL_B, "sandwich", 3, 10, 7, 11),
            (WL_A, "random", 3, 10, 7, 11),
            (WL_B, "ea", 2, 8, 3, 5),
        ]

        def one(job):
            spec, solver, k, m, pair_seed, seed = job
            with ServiceClient(port=server_port) as client:
                return client.place(
                    spec, solver=solver, k=k, m=m,
                    p_threshold=P_T, pair_seed=pair_seed, seed=seed,
                )

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            served = list(pool.map(one, jobs))
        for job, result in zip(jobs, served):
            spec, solver, k, m, pair_seed, seed = job
            expected = offline_place(spec, solver, k, m, pair_seed, seed)
            assert served_subset(result) == expected, job

    def test_one_connection_pipelined_requests_batch(self, server_port):
        payloads = [
            {
                "op": "place", "workload": WL_A, "solver": solver,
                "k": 3, "m": 10, "p_threshold": P_T,
                "pair_seed": 7, "seed": 11,
            }
            for solver in ("sandwich", "ea", "aea", "random")
        ]
        with ServiceClient(port=server_port) as client:
            responses = client.request_many(payloads)
            stats = client.stats()
        for payload, response in zip(payloads, responses):
            assert response["ok"], response
            expected = offline_place(
                WL_A, payload["solver"], 3, 10, 7, 11
            )
            assert served_subset(response["result"]) == expected
        assert stats["batching"]["requests"] >= 1

    def test_sigma_round_trip(self, server_port):
        with ServiceClient(port=server_port) as client:
            placed = client.place(
                WL_A, solver="sandwich", k=3, m=10,
                p_threshold=P_T, pair_seed=7, seed=11,
            )
            audited = client.sigma(
                WL_A, pairs=placed["pairs"], edges=placed["edges"],
                p_threshold=P_T,
            )
        assert audited["sigma"] == placed["sigma"]
        assert audited["satisfied"] == placed["satisfied"]

    def test_whatif_session_round_trip(self, server_port):
        with ServiceClient(port=server_port) as client:
            placed = client.place(
                WL_A, solver="sandwich", k=3, m=10,
                p_threshold=P_T, pair_seed=7, seed=11,
            )
            opened = client.whatif(
                "t-session", "open", workload=WL_A, k=3, m=10,
                p_threshold=P_T, pair_seed=7,
            )
            assert opened["sigma"] == 0
            adopted = client.whatif(
                "t-session", "adopt", edges=placed["edges"]
            )
            assert adopted["sigma"] == placed["sigma"]
            summary = client.whatif("t-session", "summary")
            assert summary["edges"] == placed["edges"]
            undone = client.whatif("t-session", "undo")
            assert undone["undone"] is False  # adopt clears the undo stack
            closed = client.whatif("t-session", "close")
            assert closed["closed"] is True
            with pytest.raises(ServiceError, match="no open session"):
                client.whatif("t-session", "summary")


class TestDegradation:
    def test_malformed_requests_get_structured_errors(self, server_port):
        with ServiceClient(port=server_port) as client:
            client._file.write(b"{broken json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            # The connection survives and keeps serving.
            assert client.ping()

    @staticmethod
    def _line(payload):
        return (json.dumps(payload) + "\n").encode("utf-8")

    @staticmethod
    def _answers_until(client, last_id, most=4):
        """The response lines up to and including *last_id*'s; fails
        rather than reading on when *most* lines bring no such answer."""
        answers = []
        while len(answers) < most:
            answers.append(json.loads(client._file.readline()))
            if answers[-1]["id"] == last_id:
                return answers
        raise AssertionError(f"no answer with id {last_id!r}: {answers}")

    def test_line_over_asyncio_default_limit_is_served(self, server_port):
        # asyncio's StreamReader reads at most 64 KiB per line by default;
        # a sigma audit over 8,000 explicit pairs is a legitimate ~78 KB.
        nodes = rg_workload(seed=WL_A["seed"], n=WL_A["n"]).graph.nodes
        pairs = [
            [nodes[i % len(nodes)], nodes[(i + 1) % len(nodes)]]
            for i in range(8000)
        ]
        line = self._line({
            "id": 1, "op": "sigma", "workload": WL_A, "pairs": pairs,
            "edges": [], "p_threshold": P_T,
        })
        assert 64 * 1024 < len(line) < MAX_REQUEST_LINE_BYTES
        with ServiceClient(port=server_port) as client:
            client._file.write(line)
            client._file.flush()
            (answer,) = self._answers_until(client, 1)
        assert answer["ok"], answer
        assert answer["result"]["num_pairs"] == 8000

    def test_oversized_line_gets_one_error_and_connection_survives(
        self, server_port
    ):
        oversized = self._line({
            "id": 2, "op": "ping", "pad": "x" * MAX_REQUEST_LINE_BYTES,
        })
        with ServiceClient(port=server_port) as client:
            client._file.write(self._line({"id": 1, "op": "ping"}))
            client._file.write(oversized)
            client._file.write(self._line({"id": 3, "op": "ping"}))
            client._file.flush()
            answers = self._answers_until(client, 3)
            # Exactly one answer per line: the next line is the next ping's.
            client._file.write(self._line({"id": 4, "op": "ping"}))
            client._file.flush()
            answers += self._answers_until(client, 4)
        by_id = {answer["id"]: answer for answer in answers}
        assert len(answers) == len(by_id) == 4
        assert all(by_id[i]["ok"] for i in (1, 3, 4))
        assert by_id[None]["ok"] is False
        assert by_id[None]["error"]["type"] == "ProtocolError"

    def test_newline_arriving_after_the_limit_gets_one_answer(
        self, server_port
    ):
        with ServiceClient(port=server_port) as client:
            # The server sees more than the limit with no newline yet,
            # then the line's tail and newline arrive in a later write.
            client._file.write(b'{"id": 1, "op": "ping", "pad": "')
            client._file.write(b"x" * (MAX_REQUEST_LINE_BYTES + 4096))
            client._file.flush()
            time.sleep(0.2)
            client._file.write(b'xxxx"}\n')
            client._file.write(self._line({"id": 2, "op": "ping"}))
            client._file.flush()
            answers = self._answers_until(client, 2)
            client._file.write(self._line({"id": 3, "op": "ping"}))
            client._file.flush()
            answers += self._answers_until(client, 3)
        assert [answer["id"] for answer in answers] == [None, 2, 3]
        assert answers[0]["error"]["type"] == "ProtocolError"
        assert answers[1]["ok"] and answers[2]["ok"]

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"op": "echo"}, "unknown op"),
            ({"op": "place", "workload": WL_A, "k": "three"}, "'k'"),
            (
                {"op": "place", "workload": {"kind": "lattice"}, "k": 1},
                "workload kind",
            ),
            (
                {
                    "op": "place", "workload": WL_A, "k": 3, "m": 10,
                    "p_threshold": P_T, "solver": "nope",
                },
                "available",
            ),
            (
                {"op": "place", "workload": WL_A, "k": 3, "m": 10},
                "p_threshold",
            ),
        ],
    )
    def test_bad_requests_answered_not_fatal(
        self, server_port, payload, match
    ):
        with ServiceClient(port=server_port) as client:
            with pytest.raises(ServiceError, match=match):
                client.request(**payload)
            assert client.ping()

    def test_domain_error_keeps_its_type_under_retries(self):
        # A deterministic InstanceError reaches the client under its own
        # type, not wrapped in a TaskError.
        with running_service() as port:
            with ServiceClient(port=port) as client:
                with pytest.raises(ServiceError) as info:
                    client.place(
                        WL_A, solver="sandwich", k=3, m=10_000,
                        p_threshold=P_T, pair_seed=7,
                    )
        assert info.value.error["type"] == "InstanceError"


class TestWarmCacheLifecycle:
    def test_lru_eviction_rebuild_is_byte_identical(self):
        with running_service(max_substrates=1) as port:
            with ServiceClient(port=port) as client:
                first = client.place(
                    WL_A, solver="sandwich", k=3, m=10,
                    p_threshold=P_T, pair_seed=7, seed=11,
                )
                client.place(  # evicts WL_A's substrate
                    WL_B, solver="sandwich", k=3, m=10,
                    p_threshold=P_T, pair_seed=7, seed=11,
                )
                again = client.place(  # cold rebuild of WL_A
                    WL_A, solver="sandwich", k=3, m=10,
                    p_threshold=P_T, pair_seed=7, seed=11,
                )
                stats = client.stats()
        assert stats["substrates"]["evictions"] >= 1
        assert json.dumps(first, sort_keys=True) == (
            json.dumps(again, sort_keys=True)
        )

    def test_warm_requests_hit_the_resident_substrate(self, server_port):
        with ServiceClient(port=server_port) as client:
            client.place(
                WL_A, solver="sandwich", k=2, m=8,
                p_threshold=P_T, pair_seed=1,
            )
            before = client.stats()["substrates"]["hits"]
            client.place(
                WL_A, solver="sandwich", k=2, m=8,
                p_threshold=P_T, pair_seed=2,
            )
            after = client.stats()["substrates"]["hits"]
        assert after > before

    def test_journal_restores_across_server_restarts(self, tmp_path):
        journal = str(tmp_path / "journal")
        request = dict(
            solver="sandwich", k=3, m=10,
            p_threshold=P_T, pair_seed=7, seed=11,
        )
        with running_service(journal_dir=journal) as port:
            with ServiceClient(port=port) as client:
                first = client.place(WL_A, **request)
                repeat = client.place(WL_A, **request)
        assert "restored" not in first
        assert repeat.pop("restored") is True
        assert repeat == first
        # A fresh server over the same journal restores without solving.
        with running_service(journal_dir=journal) as port:
            with ServiceClient(port=port) as client:
                revived = client.place(WL_A, **request)
                stats = client.stats()
        assert revived.pop("restored") is True
        assert revived == first
        assert stats["restored"] == 1
        assert stats["substrates"]["resident"] == 0  # never even built


def place_payload(spec, pair_seed):
    return {
        "op": "place", "workload": spec, "solver": "sandwich", "k": 2,
        "m": 8, "p_threshold": P_T, "pair_seed": pair_seed, "seed": 11,
    }


@pytest.fixture
def builds(monkeypatch):
    """The seed of every substrate the server builds, in build order;
    each build is slowed so that concurrent requests find it in flight."""
    seeds = []
    original = SubstrateLRU.build

    def spy(self, spec):
        seeds.append(spec["seed"])
        time.sleep(0.2)
        return original(self, spec)

    monkeypatch.setattr(SubstrateLRU, "build", spy)
    return seeds


class TestOneRequestAtATimePerSubstrate:
    def test_session_after_eviction_builds_nothing(self, builds):
        with running_service(max_substrates=1) as port:
            with ServiceClient(port=port) as client:
                client.whatif(
                    "pinned", "open", workload=WL_A, k=3, m=10,
                    p_threshold=P_T, pair_seed=7,
                )
                client.place(  # evicts WL_A's substrate
                    WL_B, solver="sandwich", k=3, m=10,
                    p_threshold=P_T, pair_seed=7, seed=11,
                )
                suggested = client.whatif("pinned", "suggest", count=2)
                stats = client.stats()["substrates"]
        assert suggested["session"] == "pinned"
        # The session runs on the entry it pinned: WL_A is not rebuilt,
        # and WL_B stays the one resident substrate.
        assert builds == [WL_A["seed"], WL_B["seed"]]
        assert stats["evictions"] == 1
        (resident,) = stats["entries"]
        assert resident["spec"]["seed"] == WL_B["seed"]

    def test_concurrent_cold_requests_build_once(self, builds):
        payloads = [place_payload(WL_A, pair_seed) for pair_seed in range(4)]
        with running_service(jobs=2) as port:
            with ServiceClient(port=port) as client:
                responses = client.request_many(payloads)
                stats = client.stats()["substrates"]
        assert all(response["ok"] for response in responses), responses
        assert builds == [WL_A["seed"]]
        assert stats["misses"] == 1

    def test_jobs_on_one_entry_never_overlap(self, monkeypatch):
        spans = []  # (workload seed, entered, left), from executor threads
        original = PlannerService._call_resilient

        def timed(self, entry, *args):
            entered = time.perf_counter()
            time.sleep(0.05)
            try:
                return original(self, entry, *args)
            finally:
                spans.append(
                    (entry.spec["seed"], entered, time.perf_counter())
                )

        monkeypatch.setattr(PlannerService, "_call_resilient", timed)
        with running_service(jobs=2, max_substrates=2) as port:
            with ServiceClient(port=port) as client:
                warm = client.request_many(
                    [place_payload(WL_A, 0), place_payload(WL_B, 0)]
                )
                spans.clear()
                responses = client.request_many([
                    place_payload(spec, pair_seed)
                    for pair_seed in range(1, 5)
                    for spec in (WL_A, WL_B)
                ])
        assert all(r["ok"] for r in warm + responses), responses
        by_seed = {}
        for seed, entered, left in spans:
            by_seed.setdefault(seed, []).append((entered, left))
        assert sorted(map(len, by_seed.values())) == [4, 4]
        for intervals in by_seed.values():
            intervals.sort()
            for (_, left), (entered, _) in zip(intervals, intervals[1:]):
                assert left <= entered
        # Different substrates run side by side on the two threads.
        a, b = (by_seed[spec["seed"]] for spec in (WL_A, WL_B))
        assert any(
            a_in < b_out and b_in < a_out
            for a_in, a_out in a
            for b_in, b_out in b
        )

    def test_stats_count_one_job_per_request(self):
        payloads = [place_payload(WL_A, pair_seed) for pair_seed in range(3)]
        with running_service() as port:
            with ServiceClient(port=port) as client:
                client.request_many(payloads)
                client.ping()  # answered on the loop, no executor job
                batching = client.stats()["batching"]
        # perfbench's traced serve run reads these three counters
        # (serve.batches, serve.batch_size_mean, serve.max_batch_size).
        assert batching == {
            "batches": 3, "requests": 3, "max_batch_size": 1,
        }


class TestSubstrateLRUUnit:
    def test_hit_miss_eviction_accounting(self):
        lru = SubstrateLRU(maxsize=1)
        spec_a = {"kind": "rg", "seed": 1, "n": 30,
                  "radius": 0.3, "max_link_failure": 0.08}
        spec_b = {**spec_a, "seed": 2}
        assert lru.get(spec_a) is None
        entry_a = lru.put(lru.build(spec_a))
        assert lru.get(spec_a) is entry_a
        assert spec_a in lru
        lru.put(lru.build(spec_b))
        assert spec_a not in lru
        assert lru.evictions == 1
        stats = lru.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert len(stats["entries"]) == 1

    def test_equal_key_race_keeps_resident_entry(self):
        lru = SubstrateLRU(maxsize=2)
        spec = {"kind": "rg", "seed": 1, "n": 30,
                "radius": 0.3, "max_link_failure": 0.08}
        resident = lru.put(lru.build(spec))
        challenger = lru.build(spec)
        assert lru.put(challenger) is resident
        assert len(lru) == 1

    def test_rebuilt_substrate_is_equal_by_content(self):
        spec = {"kind": "rg", "seed": 1, "n": 30,
                "radius": 0.3, "max_link_failure": 0.08}
        a = build_workload(spec).substrate()
        b = build_workload(spec).substrate()
        assert a == b and a.fingerprint == b.fingerprint
