"""Serve smoke — a live ``repro serve`` process vs offline solves.

Starts the real CLI server as a subprocess, fires a burst of mixed
requests (places across two workloads and several solvers, a sigma audit,
a what-if session) from concurrent client threads, and requires every
served placement to be **byte-identical** to the offline library solve of
the same request, and each workload's substrate to be built exactly once
although the clients arrive while it is cold. Exercises the full stack the
way CI can't from inside a unit test: process boundary, TCP transport,
per-substrate serialization under real concurrency, graceful shutdown.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py [--requests 12]

Exit status 0 = every response matched; non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.registry import solve  # noqa: E402
from repro.experiments.workloads import rg_workload  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

P_T = 0.1
WORKLOADS = [
    {"kind": "rg", "seed": 1, "n": 80},
    {"kind": "rg", "seed": 2, "n": 80},
]
SOLVERS = ["sandwich", "ea", "aea", "random"]


def offline_place(spec, solver, k, m, pair_seed, seed):
    workload = rg_workload(seed=spec["seed"], n=spec["n"])
    instance = workload.instance(P_T, m=m, k=k, seed=pair_seed)
    result = solve(solver, instance, seed=seed)
    return {
        "edges": [[int(u), int(w)] for u, w in result.edges],
        "sigma": int(result.sigma),
        "satisfied": [bool(flag) for flag in result.satisfied],
        "pairs": [[int(u), int(w)] for u, w in instance.pairs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=12)
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH="src")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--max-substrates", "2", "--jobs", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", banner)
        assert match, f"no listening banner, got {banner!r}"
        port = int(match.group(1))
        print(f"server up on port {port}")

        jobs = []
        for index in range(args.requests):
            jobs.append(
                (
                    WORKLOADS[index % len(WORKLOADS)],
                    SOLVERS[index % len(SOLVERS)],
                    2 + index % 2,          # k
                    8 + 2 * (index % 2),    # m
                    index % 3,              # pair_seed
                    11,                     # solver seed
                )
            )

        def served(job):
            spec, solver_name, k, m, pair_seed, seed = job
            with ServiceClient(port=port) as client:
                return client.place(
                    spec, solver=solver_name, k=k, m=m,
                    p_threshold=P_T, pair_seed=pair_seed, seed=seed,
                )

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(served, jobs))

        mismatches = 0
        for job, response in zip(jobs, responses):
            expected = offline_place(*job)
            got = {field: response[field] for field in expected}
            if json.dumps(got, sort_keys=True) != json.dumps(
                expected, sort_keys=True
            ):
                mismatches += 1
                print(f"MISMATCH for {job}:\n  {got}\n  vs {expected}")
        print(
            f"{len(jobs) - mismatches}/{len(jobs)} placements "
            "byte-identical to offline"
        )

        with ServiceClient(port=port) as client:
            placed = client.place(
                WORKLOADS[0], solver="sandwich", k=3, m=10,
                p_threshold=P_T, pair_seed=7, seed=11,
            )
            audited = client.sigma(
                WORKLOADS[0], pairs=placed["pairs"],
                edges=placed["edges"], p_threshold=P_T,
            )
            assert audited["sigma"] == placed["sigma"], "sigma audit"
            client.whatif(
                "smoke", "open", workload=WORKLOADS[0], k=3, m=10,
                p_threshold=P_T, pair_seed=7,
            )
            adopted = client.whatif("smoke", "adopt", edges=placed["edges"])
            assert adopted["sigma"] == placed["sigma"], "whatif adopt"
            client.whatif("smoke", "close")
            stats = client.stats()
            print(
                "stats: "
                + json.dumps(
                    {
                        "ops": stats["ops"],
                        "batching": stats["batching"],
                        "substrates": {
                            key: stats["substrates"][key]
                            for key in ("hits", "misses", "evictions")
                        },
                    }
                )
            )
            # One build per workload: concurrent cold requests wait on it.
            assert stats["substrates"]["misses"] == len(WORKLOADS), (
                f"substrate misses {stats['substrates']['misses']}"
            )
            client.shutdown()
        server.wait(timeout=30)
        assert server.returncode == 0, (
            f"server exited {server.returncode}"
        )
        print("server shut down cleanly")
        return 1 if mismatches else 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    raise SystemExit(main())
