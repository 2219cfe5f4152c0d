"""Wall-clock performance harness — writes ``BENCH_perf.json``.

Measures the performance claims of the σ kernels and the parallel
runner:

1. **σ point evaluation** (the random baseline's and EA/AEA's path): the
   batched terminal-closure kernel (``SigmaEvaluator.value_many`` over
   500 random placements) against σ read from a fresh
   ``ShortcutDistanceEngine`` per placement — the engine the candidate
   scan keeps — at the fig1 quick size and at paper scale, values
   asserted equal before timing. ``check_regression.py`` gates this
   same-process ratio.
2. **Greedy path** (the fig1 Approximation-Algorithm path: σ-greedy inside
   the sandwich): the shared incremental engine cache against the legacy
   configuration (``engine_cache_size=0``, a from-scratch engine per
   evaluation), both on σ's one candidate scan, on the fig1 RG-workload
   family at the quick size (n=40) and scaled sizes where compute, not
   numpy call overhead, dominates. Placements are asserted identical
   before timing. Recorded as the engine-cache A/B; not gated.
3. **Serve warm cache** (the ``repro serve`` request path): per-request
   latency against a resident substrate vs a cold rebuild per request,
   identical placements asserted (acceptance: warm ≥ 5×).
4. **Per-experiment wall-clock** of every quick-scale experiment.
5. **``run_all`` scaling**: a balanced (experiment × seed) task grid run
   serially and with ``--jobs``-style fan-out, with byte-identity of the
   results verified. Speedup requires actual cores: with fewer cores than
   jobs it is recorded as ``unmeasured``.
6. **Sandwich memory**: the sandwich AA (μ-, σ- and ν-greedy) beside
   σ-greedy alone on one n=2000 sparse-tier instance, time and
   tracemalloc peak. ``check_regression.py --memory`` holds the peak
   ratio under a ceiling.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py \
        [--jobs 4] [--output BENCH_perf.json] [--skip-scaling]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import time
import tracemalloc
from datetime import datetime, timezone

import numpy as np

from repro.core.evaluator import ENGINE_CACHE_MIN_N, SigmaEvaluator
from repro.core.greedy import greedy_placement
from repro.core.problem import MSCInstance, SPARSE_ORACLE_MIN_N
from repro.core.random_baseline import _trial_edges
from repro.core.sandwich import SandwichApproximation
from repro.experiments.parallel import fanout
from repro.experiments.runner import (
    _timed_experiment_task,
    experiment_names,
    run_all_timed,
    shared_workload_payload,
)
from repro.experiments.workloads import registered_workloads, rg_workload
from repro.graph.shortcuts import ShortcutDistanceEngine
from repro.netgen.geometric import random_geometric_network
from repro.netgen.pairs import sample_important_pairs

#: (n, m, k) points of the fig1-style greedy-path benchmark. The first is
#: the quick-scale fig1 configuration itself; the larger sizes are the same
#: workload family scaled until kernel work dominates per-call overhead.
GREEDY_SIZES = [(40, 8, 2), (100, 30, 3), (200, 60, 4), (300, 80, 5)]
FIG1_QUICK_P = 0.08

#: (n, m, k, p_t) points of the σ point-evaluation benchmark: the fig1
#: quick configuration and the paper's fig2/fig4 RG scale (n=100, m=80)
#: at fig4's largest budget.
POINT_EVAL_SIZES = [(40, 8, 2, FIG1_QUICK_P), (100, 80, 8, 0.14)]

#: Random placements per point-evaluation measurement, drawn like the
#: random baseline's trials (its default trial count).
POINT_EVAL_PLACEMENTS = 500

#: (n, p_t, m, k, compare_dense) points of the oracle-tier benchmark.
#: The RG radius shrinks as 0.2 * sqrt(100 / n) so average degree stays
#: roughly constant as n grows (the paper's RG family, scaled up). Dense
#: comparison stops at n=3000 — beyond that the full APSP matrix alone
#: (n² float64) is the point the sparse tier exists to avoid, so larger
#: sizes run sparse-only against the *computed* dense footprint.
ORACLE_TIER_SIZES = [
    (2000, 0.04, 60, 5, True),
    (2000, 0.03, 60, 5, True),
    (3000, 0.03, 60, 5, True),
    (5000, 0.03, 60, 5, False),
]

#: (n, p_t, m, k) points of the hub-label large-n series: the same scaled
#: RG family at the sizes the hub tier exists for. Sparse remains the
#: comparison baseline — dense would need an n² matrix (80GB at n=10⁵).
HUB_TIER_SIZES = [
    (10_000, 0.03, 60, 5),
    (50_000, 0.03, 60, 5),
    (100_000, 0.03, 60, 5),
]

#: (n, p_t, m, k) points of the sandwich-memory series: the oracle-tier
#: RG family at n=2000 on the sparse tier, at the p_t the oracle tiers
#: gate and at a wide d_t-ball (p_t=0.10, about two thirds of the graph).
SANDWICH_MEMORY_SIZES = [(2000, 0.03, 60, 5), (2000, 0.10, 60, 5)]

#: Timed solves per function in the sandwich-memory series; the fastest
#: counts. Peaks come from one separate traced solve.
SANDWICH_MEMORY_REPEATS = 3

#: Point-distance queries per throughput measurement.
HUB_QUERY_COUNT = 20_000

#: Timed solves per tier in the hub-vs-sparse series; the fastest counts,
#: as in the greedy-path benchmark. Both cutoff tiers solve n=10⁴ in about
#: 0.1 s, where one solve's time swings by a third between runs, and
#: ``check_regression.py --large-n`` holds their ratio to a tolerance.
HUB_TIER_REPEATS = 5

#: The serve warm-cache workload: dense enough that the substrate build
#: (graph generation + APSP) dominates one request's solve, the regime the
#: resident-substrate LRU exists for. m/k are deliberately small — a
#: service request is one user's pairs, not a batch campaign.
SERVE_WARM_SPEC = {
    "n": 800,
    "radius": 0.15,
    "m": 5,
    "k": 1,
    "p_t": 0.03,
    "requests": 4,
}


def _greedy_instance(n: int, m: int, k: int):
    workload = rg_workload(seed=1, n=n)
    return workload.instance(FIG1_QUICK_P, m=m, k=k, seed=(1, "bench"))


def _time_greedy(evaluator, k: int, repeats: int):
    best = float("inf")
    placement = None
    # One untimed pass first: at the sub-millisecond sizes the first call
    # pays one-off allocator/import costs that would otherwise dominate
    # the min-of-repeats.
    for timed in [False] + [True] * repeats:
        evaluator.engine_cache = type(evaluator.engine_cache)(
            evaluator.instance.oracle,
            evaluator.engine_cache._maxsize,
        )
        start = time.perf_counter()
        placement = greedy_placement(evaluator, k)
        if timed:
            best = min(best, time.perf_counter() - start)
    return best, placement


def bench_greedy_path() -> dict:
    sizes = []
    for n, m, k in GREEDY_SIZES:
        instance = _greedy_instance(n, m, k)
        # Sub-millisecond sizes need many repeats before min-of-k stops
        # reflecting scheduler jitter instead of the code path.
        repeats = 300 if n <= 50 else (25 if n <= 100 else 3)
        fast = SigmaEvaluator(instance)
        legacy = SigmaEvaluator(instance, engine_cache_size=0)
        fast_s, fast_placement = _time_greedy(fast, k, repeats)
        legacy_s, legacy_placement = _time_greedy(legacy, k, repeats)
        assert fast_placement == legacy_placement, (
            f"fast/legacy greedy disagree at n={n}"
        )
        sizes.append(
            {
                "n": n,
                "m": m,
                "k": k,
                "legacy_s": round(legacy_s, 6),
                "fast_s": round(fast_s, 6),
                "speedup": round(legacy_s / fast_s, 3),
            }
        )
    headline = sizes[-1]
    return {
        "description": (
            "fig1 AA greedy path (sigma-greedy), shared incremental "
            "engine cache vs from-scratch engines, both on sigma's one "
            "candidate scan; identical placements verified. Headline "
            "speedup is the largest size, where kernel work dominates "
            "call overhead."
        ),
        "sizes": sizes,
        "quick_n": sizes[0]["n"],
        "quick_speedup": sizes[0]["speedup"],
        "n": headline["n"],
        "speedup": headline["speedup"],
        # Below these sizes the corresponding optimization auto-disables
        # (the quick_speedup guard: tiny instances must not regress).
        "cutovers": {
            "engine_cache_min_n": ENGINE_CACHE_MIN_N,
            "sparse_oracle_min_n": SPARSE_ORACLE_MIN_N,
        },
    }


def _engine_values(evaluator, placements):
    """σ of each placement from a fresh supernode engine per placement."""
    instance = evaluator.instance
    pairs = np.array(instance.pair_indices, dtype=np.intp)
    ends, slots = np.unique(pairs, return_inverse=True)
    slots = slots.reshape(pairs.shape)
    values = []
    for edges in placements:
        engine = ShortcutDistanceEngine.from_index_pairs(
            instance.oracle, edges
        )
        rows = engine.distances_from_indices_to(ends, ends)
        distances = rows[slots[:, 0], slots[:, 1]]
        values.append(int((distances <= evaluator.limit).sum()))
    return values


def _best_of_alternating(first, second, repeats: int):
    """Best-of-*repeats* seconds of two callables, timed in alternation
    after an untimed warm-up so host drift reaches both sides."""
    first()
    second()
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((first, second)):
            start = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - start)
    return best


def bench_point_eval(sizes=None) -> dict:
    """Batched terminal-closure σ against a fresh engine per placement."""
    entries = []
    for n, m, k, p_t in sizes or POINT_EVAL_SIZES:
        workload = rg_workload(seed=1, n=n)
        instance = workload.instance(p_t, m=m, k=k, seed=(1, "bench"))
        evaluator = SigmaEvaluator(instance)
        placements = [
            _trial_edges(trial_seed, instance.n, k)
            for trial_seed in range(POINT_EVAL_PLACEMENTS)
        ]
        assert evaluator.value_many(placements) == _engine_values(
            evaluator, placements
        ), f"batched/engine sigma disagree at n={n}"
        # The quick size runs in milliseconds; more repeats keep its
        # best-of from reflecting scheduler jitter.
        batched_s, engine_s = _best_of_alternating(
            lambda: evaluator.value_many(placements),
            lambda: _engine_values(evaluator, placements),
            25 if n <= 50 else 10,
        )
        entries.append(
            {
                "n": instance.n,
                "m": m,
                "k": k,
                "p_t": p_t,
                "engine_s": round(engine_s, 6),
                "batched_s": round(batched_s, 6),
                "speedup": round(engine_s / batched_s, 3),
            }
        )
    headline = entries[-1]
    return {
        "description": (
            f"sigma at {POINT_EVAL_PLACEMENTS} random placements: one "
            "batched terminal-closure call (value_many) vs a fresh "
            "ShortcutDistanceEngine per placement, same process, equal "
            "values asserted. quick = the fig1 quick size, headline = "
            "paper scale (RG n=100, m=80, k=8)."
        ),
        "placements": POINT_EVAL_PLACEMENTS,
        "sizes": entries,
        "quick_n": entries[0]["n"],
        "quick_speedup": entries[0]["speedup"],
        "n": headline["n"],
        "speedup": headline["speedup"],
    }


def _oracle_tier_workload(n: int, p_t: float, m: int):
    radius = 0.2 * math.sqrt(100 / n)
    network = random_geometric_network(
        n, radius=radius, max_link_failure=0.08, seed=1
    )
    pairs = sample_important_pairs(
        network.graph, m, p_t, seed=(1, "bench")
    )
    return network.graph, pairs


def _run_tier(graph, pairs, k: int, p_t: float, oracle: str):
    """One timed greedy solve; returns placement, seconds, tracemalloc
    peak bytes, and the post-run ru_maxrss high-water (KiB)."""
    tracemalloc.start()
    start = time.perf_counter()
    instance = MSCInstance(
        graph, pairs, k=k, p_threshold=p_t, oracle=oracle
    )
    evaluator = SigmaEvaluator(instance)
    placement = greedy_placement(evaluator, k)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return placement, elapsed, peak, rss_kb


def bench_oracle_tiers(sizes=None) -> dict:
    """Sparse vs dense oracle tier on the scaled RG family.

    The sparse tier must solve each size with the *identical* placement at
    a fraction of the dense peak. ``ru_maxrss`` is a process-wide
    high-water mark (it never decreases), so the sparse run goes first and
    each entry records the mark observed right after it.
    """
    entries = []
    for n, p_t, m, k, compare_dense in sizes or ORACLE_TIER_SIZES:
        graph, pairs = _oracle_tier_workload(n, p_t, m)
        sparse_placed, sparse_s, sparse_peak, sparse_rss = _run_tier(
            graph, pairs, k, p_t, "sparse"
        )
        entry = {
            "n": graph.number_of_nodes(),
            "p_t": p_t,
            "m": m,
            "k": k,
            "sparse_s": round(sparse_s, 4),
            "sparse_peak_mb": round(sparse_peak / 1e6, 2),
            "sparse_rss_kb": sparse_rss,
            "dense_matrix_mb": round(n * n * 8 / 1e6, 2),
        }
        if compare_dense:
            dense_placed, dense_s, dense_peak, dense_rss = _run_tier(
                graph, pairs, k, p_t, "dense"
            )
            assert sparse_placed == dense_placed, (
                f"sparse/dense placements disagree at n={n}, p_t={p_t}"
            )
            entry.update(
                {
                    "dense_s": round(dense_s, 4),
                    "dense_peak_mb": round(dense_peak / 1e6, 2),
                    "dense_rss_kb": dense_rss,
                    "placements_identical": True,
                    "speedup": round(dense_s / sparse_s, 3),
                    "mem_ratio": round(sparse_peak / dense_peak, 3),
                }
            )
        else:
            entry["mem_ratio_vs_matrix"] = round(
                sparse_peak / (n * n * 8), 3
            )
        entries.append(entry)
    return {
        "description": (
            "greedy solve per oracle tier on the scaled RG family "
            "(radius 0.2*sqrt(100/n)); mem_ratio is sparse tracemalloc "
            "peak / dense tracemalloc peak for the same workload "
            "(acceptance: <= 0.25). Sparse-only sizes report the peak "
            "against the dense n^2 float64 matrix the tier avoids."
        ),
        "sizes": entries,
    }


def _solve_tier(
    graph, pairs, k: int, p_t: float, oracle: str, repeats: int = 1
):
    """Greedy solve(s), oracle build included; returns ``(placement,
    fastest seconds)``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        instance = MSCInstance(
            graph, pairs, k=k, p_threshold=p_t, oracle=oracle
        )
        evaluator = SigmaEvaluator(instance)
        placement = greedy_placement(evaluator, k)
        best = min(best, time.perf_counter() - start)
    return placement, best


def _traced_peak(fn) -> int:
    """tracemalloc peak bytes of ``fn()`` (run separately from timing:
    tracing taxes pure-Python allocation far more than scipy's C paths,
    so a traced wall-clock would bias the tier comparison)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_hub_tier(sizes=None) -> dict:
    """Hub-label vs sparse tier on the scaled RG family at n >= 10^4.

    Per size: full greedy solve per tier (identical placements asserted),
    hub index build time / label stats, and point-query throughput over
    uniformly random node pairs. Timing and tracemalloc peaks come from
    separate runs (see :func:`_traced_peak`).
    """
    import numpy as np

    from repro.core.problem import HUB_ORACLE_MIN_N
    from repro.failure.models import failure_to_length
    from repro.graph.hub_labels import HubLabelOracle, threshold_cutoff

    entries = []
    for n, p_t, m, k in sizes or HUB_TIER_SIZES:
        start = time.perf_counter()
        graph, pairs = _oracle_tier_workload(n, p_t, m)
        generate_s = time.perf_counter() - start
        n_nodes = graph.number_of_nodes()

        d_t = failure_to_length(p_t)
        start = time.perf_counter()
        oracle = HubLabelOracle(graph, cutoff=threshold_cutoff(d_t))
        build_s = time.perf_counter() - start
        labels = oracle.label_count()

        rng = np.random.default_rng(1)
        queries = rng.integers(0, n_nodes, size=(HUB_QUERY_COUNT, 2))
        start = time.perf_counter()
        for iu, iv in queries:
            oracle.distance_by_index(int(iu), int(iv))
        query_s = time.perf_counter() - start

        hub_placed, hub_s = _solve_tier(
            graph, pairs, k, p_t, "hub", HUB_TIER_REPEATS
        )
        sparse_placed, sparse_s = _solve_tier(
            graph, pairs, k, p_t, "sparse", HUB_TIER_REPEATS
        )
        assert hub_placed == sparse_placed, (
            f"hub/sparse placements disagree at n={n}, p_t={p_t}"
        )
        hub_peak = _traced_peak(
            lambda: _solve_tier(graph, pairs, k, p_t, "hub")
        )
        sparse_peak = _traced_peak(
            lambda: _solve_tier(graph, pairs, k, p_t, "sparse")
        )
        entries.append(
            {
                "n": n_nodes,
                "p_t": p_t,
                "m": m,
                "k": k,
                "generate_s": round(generate_s, 4),
                "hub_build_s": round(build_s, 4),
                "labels_per_node": round(labels / n_nodes, 3),
                "point_queries_per_s": round(
                    HUB_QUERY_COUNT / query_s, 1
                ),
                "hub_s": round(hub_s, 4),
                "sparse_s": round(sparse_s, 4),
                "speedup": round(sparse_s / hub_s, 3),
                "hub_peak_mb": round(hub_peak / 1e6, 2),
                "sparse_peak_mb": round(sparse_peak / 1e6, 2),
                "mem_ratio": round(hub_peak / sparse_peak, 3),
                "placements_identical": True,
            }
        )
    return {
        "description": (
            "hub-label vs sparse oracle tier, both built with the "
            "threshold cutoff: full greedy solve (fastest of "
            f"{HUB_TIER_REPEATS}) on the scaled RG family at hub scale "
            f"(auto cutover at n >= {HUB_ORACLE_MIN_N}); identical "
            "placements asserted. speedup is sparse_s / hub_s; mem_ratio "
            "is hub tracemalloc peak / sparse tracemalloc peak for the "
            "same solve, measured untimed. check_regression.py --large-n "
            "holds both at the first size to this file within its "
            "--tolerance."
        ),
        "sizes": entries,
    }


def bench_sandwich_memory(sizes=None) -> dict:
    """The sandwich AA beside σ-greedy on the same sparse-tier instance.

    Per size: the fastest of :data:`SANDWICH_MEMORY_REPEATS` solves and
    one traced solve's tracemalloc peak of each, every solve on a fresh
    instance with its oracle built before the clock starts (engines are
    memoized per substrate, so a reused instance would hand the second
    solve the first one's work). ``universe`` is σ's candidate universe
    for the empty placement — the pair endpoints' d_t-ball.
    """
    entries = []
    for n, p_t, m, k in sizes or SANDWICH_MEMORY_SIZES:
        graph, pairs = _oracle_tier_workload(n, p_t, m)

        def fresh():
            return MSCInstance(
                graph, pairs, k=k, p_threshold=p_t, oracle="sparse"
            )

        solvers = {
            "sigma_greedy": lambda instance: greedy_placement(
                SigmaEvaluator(instance), k
            ),
            "sandwich": lambda instance: SandwichApproximation(
                instance
            ).solve(),
        }
        entry = {"n": graph.number_of_nodes(), "p_t": p_t, "m": m, "k": k}
        instance = fresh()
        entry["universe"] = int(
            SigmaEvaluator(instance).candidate_universe([]).size
        )
        for name, solve in solvers.items():
            best = float("inf")
            for _ in range(SANDWICH_MEMORY_REPEATS):
                instance = fresh()
                start = time.perf_counter()
                solve(instance)
                best = min(best, time.perf_counter() - start)
            instance = fresh()
            peak = _traced_peak(lambda: solve(instance))
            entry[f"{name}_s"] = round(best, 4)
            entry[f"{name}_peak_mb"] = round(peak / 1e6, 2)
        entry["peak_ratio"] = round(
            entry["sandwich_peak_mb"] / entry["sigma_greedy_peak_mb"], 2
        )
        entries.append(entry)
    return {
        "description": (
            "sandwich AA (mu-, sigma- and nu-greedy) vs sigma-greedy alone "
            "on one sparse-tier instance of the scaled RG family, oracle "
            f"built untimed: fastest of {SANDWICH_MEMORY_REPEATS} solves and "
            "one traced solve's tracemalloc peak each; peak_ratio is "
            "sandwich peak / sigma-greedy peak. check_regression.py "
            "--memory holds peak_ratio at p_t=0.03 under a ceiling."
        ),
        "sizes": entries,
    }


def bench_serve_warm_cache(spec: dict = None) -> dict:
    """Warm (resident substrate) vs cold (rebuild per request) latency of
    the ``repro serve`` request path.

    Each request carries an explicit pair set (the service request shape);
    the cold path pays what an LRU miss costs — workload generation, APSP,
    substrate assembly — before the identical solve. Placements are
    asserted identical request by request, so the warm path's speedup is
    pure amortization, not a different computation.
    """
    from repro.core.registry import solve
    from repro.core.substrate import PlacementRequest
    from repro.netgen.pairs import select_important_pairs
    from repro.service.substrates import SubstrateLRU

    spec = dict(SERVE_WARM_SPEC, **(spec or {}))
    n, m, k, p_t = spec["n"], spec["m"], spec["k"], spec["p_t"]
    workload_spec = {
        "kind": "rg",
        "seed": 1,
        "n": n,
        "radius": spec["radius"],
        "max_link_failure": 0.08,
    }
    lru = SubstrateLRU(maxsize=2)
    build_start = time.perf_counter()
    entry = lru.put(lru.build(workload_spec))
    _ = entry.workload.oracle.matrix  # resident build includes the APSP
    build_s = time.perf_counter() - build_start
    pair_sets = [
        select_important_pairs(
            entry.workload.graph, m, p_t,
            seed=(i, "serve-bench"), oracle=entry.workload.oracle,
        )
        for i in range(spec["requests"])
    ]
    requests = [
        PlacementRequest(pairs, k, p_threshold=p_t) for pairs in pair_sets
    ]
    # Untimed prime: first-call allocator/import costs belong to neither
    # side of the comparison.
    solve(
        "sandwich",
        MSCInstance.from_parts(entry.substrate, requests[0]),
        seed=11,
    )
    cold_total = warm_total = 0.0
    for request in requests:
        start = time.perf_counter()
        fresh = lru.build(workload_spec)  # what an LRU miss costs
        cold_result = solve(
            "sandwich",
            MSCInstance.from_parts(fresh.substrate, request),
            seed=11,
        )
        cold_total += time.perf_counter() - start
        start = time.perf_counter()
        warm_result = solve(
            "sandwich",
            MSCInstance.from_parts(entry.substrate, request),
            seed=11,
        )
        warm_total += time.perf_counter() - start
        assert cold_result.edges == warm_result.edges, (
            "warm/cold placements disagree"
        )
        assert cold_result.sigma == warm_result.sigma
    count = spec["requests"]
    return {
        "description": (
            "repro-serve request path: resident-substrate (warm) vs "
            "rebuild-per-request (cold) latency on an RG workload whose "
            "substrate build dominates one solve; explicit pair sets, "
            "identical placements asserted per request (acceptance: "
            "warm >= 5x faster than cold)."
        ),
        "n": n,
        "radius": spec["radius"],
        "m": m,
        "k": k,
        "p_t": p_t,
        "requests": count,
        "substrate_build_s": round(build_s, 4),
        "cold_s_per_request": round(cold_total / count, 4),
        "warm_s_per_request": round(warm_total / count, 4),
        "speedup": round(cold_total / warm_total, 3),
        "placements_identical": True,
    }


def bench_quick_experiments() -> dict:
    timed = run_all_timed(scale="quick", seed=1)
    return {
        result.name: round(elapsed, 4) for result, elapsed in timed
    }


def bench_run_all_scaling(jobs: int) -> dict:
    names = experiment_names()
    seeds = (1, 2, 3, 4)
    tasks = [
        (name, "quick", seed) for seed in seeds for name in names
    ]

    def timed_fanout(workers: int):
        # Each side registers its own fresh build of the shared workloads
        # (Gowalla, per-seed RG), as run_all does, so that neither reads
        # the other's warm substrates. Forked workers inherit them.
        shared = {}
        for seed in seeds:
            shared.update(shared_workload_payload(names, "quick", seed))
        with registered_workloads(shared):
            start = time.perf_counter()
            results = fanout(_timed_experiment_task, tasks, jobs=workers)
            return results, time.perf_counter() - start

    serial, serial_s = timed_fanout(1)
    parallel, parallel_s = timed_fanout(jobs)
    identical = json.dumps(
        [r.to_json() for r, _ in serial], sort_keys=True
    ) == json.dumps([r.to_json() for r, _ in parallel], sort_keys=True)
    assert identical, "parallel run_all diverged from serial"
    cpu_count = os.cpu_count() or 1
    entry = {
        "description": (
            "run_all-style fan-out over a balanced (experiment x seed) "
            "grid; the shared workloads are built and registered before "
            "the clock starts, and forked workers inherit them; "
            "byte_identical compares serial vs parallel JSON. With fewer "
            "cores than jobs no speedup is recorded (unmeasured); "
            "efficiency is speedup / jobs."
        ),
        "jobs": jobs,
        "cpu_count": cpu_count,
        "tasks": len(tasks),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "byte_identical": identical,
    }
    if cpu_count < jobs:
        entry["unmeasured"] = f"cpu_count={cpu_count}"
    else:
        speedup = serial_s / parallel_s
        entry["speedup"] = round(speedup, 3)
        entry["efficiency"] = round(speedup / jobs, 3)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--output", default="BENCH_perf.json")
    parser.add_argument(
        "--skip-scaling",
        action="store_true",
        help="skip the run_all scaling grid (the slowest section)",
    )
    parser.add_argument(
        "--skip-large-n",
        action="store_true",
        help="skip the hub-label large-n series (n up to 10^5)",
    )
    args = parser.parse_args()

    report = {
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sigma_point_eval": bench_point_eval(),
        "fig1_greedy_path": bench_greedy_path(),
        "oracle_tiers": bench_oracle_tiers(),
        "sandwich_memory": bench_sandwich_memory(),
        "serve_warm_cache": bench_serve_warm_cache(),
        "quick_experiments_s": bench_quick_experiments(),
    }
    if not args.skip_large_n:
        report["hub_tier_large_n"] = bench_hub_tier()
    if not args.skip_scaling:
        report["run_all_scaling"] = bench_run_all_scaling(args.jobs)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
