"""The library's layers as the benchmark traces them.

:func:`install` wraps the public entry points of each ``repro`` layer with
:class:`~benchlib.spans.Tracer` spans (or plain counters for hot leaf
calls); :func:`layer_metrics` turns the recorded spans back into the
per-layer metrics listed in ``BENCHMARK.json``. Span names are
``<layer>.<what>``; a layer's self time is the self time of every span
whose name starts with that layer.

Which end-to-end metric each layer should move, and on which workload
(written down before measuring):

* ``netgen.graph_s`` -> ``setup_s`` on serve and large_graph;
  ``netgen.pairs_*`` -> ``run_s`` on campaign, ``setup_s`` on large_graph.
* ``oracle.dense_*`` -> ``run_s`` on reliability; ``oracle.sparse_*`` and
  ``oracle.hub_*`` -> ``run_s`` on large_graph; ``oracle.row_queries`` ->
  ``run_s`` on campaign.
* ``engine.*`` -> ``run_s`` on campaign, ``latency_p95_ms`` on serve.
* ``sigma.value_*`` -> ``run_s`` on campaign; ``sigma.scan_*``,
  ``sigma.pairs_scanned``, ``sigma.universe_frac`` -> ``run_s`` on
  campaign, ``latency_p50_ms`` on serve (small on large_graph).
* ``bounds.*`` -> ``latency_p50_ms`` and ``peak_rss_mb`` on serve, ``run_s``
  on campaign.
* ``select.*`` -> ``run_s`` on campaign (fig4 for the evolutionary ones).
* ``sim.*`` and ``inject.*`` -> ``run_s`` on reliability.
* ``experiment.*`` and ``fanout.*`` show which experiment moved ``run_s``.
* ``serve.solve_ms`` / ``serve.queue_ms`` -> ``latency_p95_ms``; batching ->
  ``saturation_rps`` against ``latency_p50_ms``; substrate counters ->
  ``setup_s``; ``serve.generator_lag_ms`` is the load generator's health.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

import numpy as np

from benchlib.spans import Patcher, SpanSet, Tracer, outermost_mask

#: Experiments whose wall time is reported per name.
EXPERIMENT_NAMES = (
    "table1", "table2", "fig1", "fig2", "fig4", "robustness", "delivery",
)

#: Layers whose self time is reported as ``self.<layer>_s``.
LAYERS = (
    "netgen", "oracle", "engine", "sigma", "bounds", "select", "sim",
    "inject", "experiment", "fanout", "serve",
)

#: Every per-layer metric: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("netgen.graph_s", "s", "lower"),
    ("netgen.pairs_s", "s", "lower"),
    ("netgen.pairs_calls", "count", "lower"),
    ("oracle.dense_builds", "count", "lower"),
    ("oracle.dense_build_s", "s", "lower"),
    ("oracle.sparse_builds", "count", "lower"),
    ("oracle.sparse_build_s", "s", "lower"),
    ("oracle.hub_builds", "count", "lower"),
    ("oracle.hub_build_s", "s", "lower"),
    ("oracle.row_queries", "count", "lower"),
    ("engine.gets", "count", "lower"),
    ("engine.hits", "count", "higher"),
    ("engine.extensions", "count", "higher"),
    ("engine.builds", "count", "lower"),
    ("engine.reuse_ratio", "ratio", "higher"),
    ("engine.build_s", "s", "lower"),
    ("engine.query_s", "s", "lower"),
    ("sigma.value_calls", "count", "lower"),
    ("sigma.value_s", "s", "lower"),
    ("sigma.scan_calls", "count", "lower"),
    ("sigma.scan_s", "s", "lower"),
    ("sigma.pairs_scanned", "count", "lower"),
    ("sigma.universe_frac", "ratio", "lower"),
    ("bounds.mu_build_s", "s", "lower"),
    ("bounds.mu_scan_s", "s", "lower"),
    ("bounds.nu_scan_s", "s", "lower"),
    ("bounds.mu_mask_mb", "MB", "lower"),
    ("select.greedy_rounds", "count", "lower"),
    ("select.greedy_self_s", "s", "lower"),
    ("select.evo_iterations", "count", "lower"),
    ("select.evo_evaluations", "count", "lower"),
    ("select.evo_self_s", "s", "lower"),
    ("sim.trials", "count", "lower"),
    ("sim.sample_s", "s", "lower"),
    ("sim.simulate_s", "s", "lower"),
    ("sim.trials_per_s", "1/s", "higher"),
    ("sim.overhead_s", "s", "lower"),
    ("inject.cells", "count", "lower"),
    ("inject.oracle_memo_hits", "count", "higher"),
    ("inject.oracle_memo_builds", "count", "lower"),
    *[(f"experiment.{name}_s", "s", "lower") for name in EXPERIMENT_NAMES],
    ("fanout.tasks", "count", "lower"),
    ("fanout.retried", "count", "lower"),
    ("fanout.failed", "count", "lower"),
    ("serve.solve_ms", "ms", "lower"),
    ("serve.queue_ms", "ms", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.max_batch_size", "count", "higher"),
    ("serve.substrate_hits", "count", "higher"),
    ("serve.substrate_misses", "count", "lower"),
    ("serve.substrate_build_s", "s", "lower"),
    ("serve.dense_substrates", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.generator_lag_ms", "ms", "lower"),
    *[(f"self.{layer}_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_SCAN_SPANS = ("sigma.scan", "bounds.mu_scan", "bounds.nu_scan")


# ----------------------------------------------------------------- hooks


def _engine_counters(args, _kwargs):
    cache = args[0]
    return cache.hits, cache.extensions, cache.builds


def _engine_post(tracer, index, before, args, _kwargs, _result):
    cache = args[0]
    hits = cache.hits - before[0]
    extensions = cache.extensions - before[1]
    builds = cache.builds - before[2]
    tracer.count("engine.hits", hits)
    tracer.count("engine.extensions", extensions)
    tracer.count("engine.builds", builds)
    if extensions or builds:
        tracer.count("engine.build_s", tracer.duration(index))


def _scan_post(tracer, _index, _state, args, _kwargs, result):
    """Pairs scanned and candidate-universe share of one σ scan. The
    scan's diagonal holds the number of pairs already satisfied."""
    evaluator = args[0]
    if result is None:  # the restricted scan declined; no scan happened
        tracer.count("sigma.scan_declined")
        return
    if isinstance(result, tuple):
        scores, universe = result
        fraction = universe.size / max(evaluator.n, 1)
    else:
        scores, fraction = result, 1.0
    satisfied = int(scores[0, 0]) if scores.size else evaluator.num_pairs
    tracer.count("sigma.pairs_scanned", evaluator.num_pairs - satisfied)
    tracer.count("sigma.universe_sum", fraction)


def _mu_post(tracer, _index, _state, args, _kwargs, _result):
    mu = args[0]
    masked = sum(1 for done in mu.base_satisfied if not done)
    tracer.peak("bounds.mu_mask_mb", masked * mu.n * mu.n / 1e6)


def _evo_post(tracer, _index, _state, args, _kwargs, result):
    tracer.count("select.evo_iterations", args[0].iterations)
    tracer.count("select.evo_evaluations", result.evaluations)


def _simulate_post(tracer, _index, _state, _args, kwargs, _result):
    tracer.count("sim.trials", kwargs.get("trials", 1000))


def _inject_counters(args, _kwargs):
    harness = args[0]
    return harness.oracle_memo_hits, harness.oracle_memo_builds


def _inject_post(tracer, _index, before, args, _kwargs, _result):
    harness = args[0]
    tracer.count("inject.oracle_memo_hits", harness.oracle_memo_hits - before[0])
    tracer.count(
        "inject.oracle_memo_builds", harness.oracle_memo_builds - before[1]
    )


def _fanout_post(tracer, _index, _state, args, kwargs, report):
    tasks = kwargs.get("tasks", args[1] if len(args) > 1 else ())
    tracer.count("fanout.tasks", len(tasks))
    tracer.count("fanout.retried", report.retried)
    tracer.count("fanout.failed", len(report.failures))


# --------------------------------------------------------------- install


def _lazy_build(tracer: Tracer, prop: property, name: str) -> property:
    """The sparse row block is built on first access of its property;
    record a span for that access only, not for every later read."""
    build = tracer.span(prop.fget, name)

    def fget(oracle):
        return build(oracle) if oracle._block is None else prop.fget(oracle)

    return property(fget)


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced ``repro`` entry point; returns the patcher whose
    :meth:`~benchlib.spans.Patcher.restore` takes the wrappers off."""
    import repro.cli  # noqa: F401  (loads every module that re-imports)
    import repro.sim.overhead as overhead
    from repro.core import aea, bounds, ea, evaluator, greedy, lazy_greedy
    from repro.core import random_baseline, sandwich, substrate
    from repro.experiments import parallel, runner
    from repro.failure import injection
    from repro.graph import distances, hub_labels, paths, shortcuts
    from repro.graph import sparse_oracle
    from repro.netgen import geometric, gowalla, pairs
    from repro.service import server, substrates
    from repro.sim import delivery, sampling

    patch = Patcher("repro")

    def span(name, **hooks):
        return lambda fn: tracer.span(fn, name, **hooks)

    # workload generation
    patch.function(geometric, "random_geometric_network", span("netgen.graph"))
    patch.function(gowalla, "gowalla_network", span("netgen.graph"))
    for attr in ("eligible_pairs", "select_important_pairs",
                 "sample_important_pairs"):
        patch.function(pairs, attr, span("netgen.pairs"))

    # distance oracles
    patch.function(paths, "all_pairs_distance_matrix",
                   span("oracle.dense_build"))
    patch.function(sparse_oracle, "relevant_source_indices",
                   span("oracle.ball"))
    patch.method(sparse_oracle.SparseRowOracle, "block",
                 lambda prop: _lazy_build(tracer, prop, "oracle.sparse_build"))
    patch.method(hub_labels.HubLabelOracle, "__init__",
                 span("oracle.hub_build"))
    rows = lambda fn: tracer.counting(fn, "oracle.row_queries")  # noqa: E731
    for cls, attrs in (
        (distances.DistanceOracle, ("row_by_index", "rows")),
        (sparse_oracle.SparseRowOracle, ("row_by_index", "rows")),
        (hub_labels.HubLabelOracle, ("row_by_index", "rows", "rows_to")),
    ):
        for attr in attrs:
            patch.method(cls, attr, rows)

    # shortcut engines and their cache
    patch.method(substrate.EngineCache, "get",
                 span("engine.get", pre=_engine_counters, post=_engine_post))
    for attr in ("distances_from_index", "distances_from_indices",
                 "distances_from_indices_to", "distance_by_index",
                 "satisfied_pairs"):
        patch.method(shortcuts.ShortcutDistanceEngine, attr,
                     span("engine.query"))

    # the σ objective
    for attr in ("value", "satisfied"):
        patch.method(evaluator.SigmaEvaluator, attr, span("sigma.value"))
    for attr in ("add_candidates", "add_candidates_restricted"):
        patch.method(evaluator.SigmaEvaluator, attr,
                     span("sigma.scan", post=_scan_post))

    # μ / ν bounds
    patch.method(bounds.MuFunction, "__init__",
                 span("bounds.mu_build", post=_mu_post))
    patch.method(bounds.MuFunction, "add_candidates", span("bounds.mu_scan"))
    patch.method(bounds.NuFunction, "__init__", span("bounds.nu_build"))
    patch.method(bounds.NuFunction, "add_candidates", span("bounds.nu_scan"))

    # selection
    patch.function(greedy, "greedy_placement", span("select.greedy"))
    patch.function(lazy_greedy, "lazy_greedy_placement",
                   span("select.greedy"))
    patch.method(ea.EvolutionaryAlgorithm, "solve",
                 span("select.evo", post=_evo_post))
    patch.method(aea.AdaptiveEvolutionaryAlgorithm, "solve",
                 span("select.evo", post=_evo_post))
    patch.method(sandwich.SandwichApproximation, "solve",
                 span("select.sandwich"))
    patch.function(random_baseline, "solve_random_baseline",
                   span("select.random"))

    # Monte-Carlo delivery
    patch.function(sampling, "sample_failed_edges", span("sim.sample"))
    patch.method(delivery.DeliverySimulator, "simulate",
                 span("sim.simulate", post=_simulate_post))
    for attr in ("measure_overhead", "compare_overheads"):
        patch.function(overhead, attr, span("sim.overhead"))

    # fault injection
    patch.method(injection.FaultInjectionHarness, "run",
                 span("inject.cell", pre=_inject_counters, post=_inject_post))

    # experiments and their fan-out
    for name in EXPERIMENT_NAMES:
        fn = runner.get_experiment(name)
        patch.function(
            sys.modules[fn.__module__], fn.__name__,
            span(f"experiment.{name}"),
        )
    patch.function(parallel, "fanout_report", span("fanout", post=_fanout_post))

    # the planner service
    patch.method(server.PlannerService, "_call_resilient", span("serve.solve"))
    patch.method(substrates.SubstrateLRU, "build",
                 span("serve.substrate_build"))
    return patch


# --------------------------------------------------------------- metrics


def _outermost(spans: SpanSet, *names: str) -> Tuple[int, float]:
    """(calls, seconds) of the group's outermost spans."""
    top = outermost_mask(spans.parents, spans.mask(names))
    return int(top.sum()), float(spans.durations[top].sum())


def _total(spans: SpanSet, *names: str) -> Tuple[int, float]:
    selected = spans.mask(names)
    return int(selected.sum()), float(spans.durations[selected].sum())


def _self(spans: SpanSet, *names: str) -> float:
    return float(spans.self_time[spans.mask(names)].sum())


def layer_metrics(spans: SpanSet) -> Dict[str, float]:
    """Per-layer metrics computed from recorded spans."""
    out: Dict[str, float] = {}
    counter = spans.counter

    out["netgen.graph_s"] = _outermost(spans, "netgen.graph")[1]
    calls, seconds = _outermost(spans, "netgen.pairs")
    out["netgen.pairs_s"] = seconds
    out["netgen.pairs_calls"] = calls
    for tier in ("dense", "sparse", "hub"):
        builds, seconds = _total(spans, f"oracle.{tier}_build")
        out[f"oracle.{tier}_builds"] = builds
        out[f"oracle.{tier}_build_s"] = seconds
    out["oracle.row_queries"] = counter("oracle.row_queries")

    gets = _total(spans, "engine.get")[0]
    out["engine.gets"] = gets
    for what in ("hits", "extensions", "builds"):
        out[f"engine.{what}"] = counter(f"engine.{what}")
    out["engine.reuse_ratio"] = (
        (out["engine.hits"] + out["engine.extensions"]) / gets if gets else 0.0
    )
    out["engine.build_s"] = counter("engine.build_s")
    out["engine.query_s"] = _outermost(spans, "engine.query")[1]

    calls, seconds = _outermost(spans, "sigma.value")
    out["sigma.value_calls"] = calls
    out["sigma.value_s"] = seconds
    calls, seconds = _outermost(spans, "sigma.scan")
    scans = calls - counter("sigma.scan_declined")
    out["sigma.scan_calls"] = scans
    out["sigma.scan_s"] = seconds
    out["sigma.pairs_scanned"] = counter("sigma.pairs_scanned")
    out["sigma.universe_frac"] = (
        counter("sigma.universe_sum") / scans if scans else 0.0
    )

    out["bounds.mu_build_s"] = _total(spans, "bounds.mu_build")[1]
    out["bounds.mu_scan_s"] = _total(spans, "bounds.mu_scan")[1]
    out["bounds.nu_scan_s"] = _total(spans, "bounds.nu_scan")[1]
    out["bounds.mu_mask_mb"] = counter("bounds.mu_mask_mb")

    greedy_ids = spans.ids_of(["select.greedy"])
    scan_mask = spans.mask(_SCAN_SPANS)
    parents = spans.parents[scan_mask]
    parent_names = spans.name_ids[parents[parents >= 0]]
    out["select.greedy_rounds"] = int(np.isin(parent_names, greedy_ids).sum())
    out["select.greedy_self_s"] = _self(spans, "select.greedy")
    out["select.evo_iterations"] = counter("select.evo_iterations")
    out["select.evo_evaluations"] = counter("select.evo_evaluations")
    out["select.evo_self_s"] = _self(spans, "select.evo")

    out["sim.trials"] = counter("sim.trials")
    out["sim.sample_s"] = _total(spans, "sim.sample")[1]
    simulate_s = _outermost(spans, "sim.simulate")[1]
    out["sim.simulate_s"] = simulate_s
    out["sim.trials_per_s"] = (
        out["sim.trials"] / simulate_s if simulate_s else 0.0
    )
    out["sim.overhead_s"] = _outermost(spans, "sim.overhead")[1]

    out["inject.cells"] = _total(spans, "inject.cell")[0]
    out["inject.oracle_memo_hits"] = counter("inject.oracle_memo_hits")
    out["inject.oracle_memo_builds"] = counter("inject.oracle_memo_builds")

    for name in EXPERIMENT_NAMES:
        out[f"experiment.{name}_s"] = _total(spans, f"experiment.{name}")[1]
    for what in ("tasks", "retried", "failed"):
        out[f"fanout.{what}"] = counter(f"fanout.{what}")

    layer_of = np.array(
        [name.split(".", 1)[0] for name in spans.names] or [""], dtype=object
    )
    span_layers = layer_of[spans.name_ids] if len(spans.name_ids) else []
    for layer in LAYERS:
        selected = np.asarray(span_layers == layer, dtype=bool)
        out[f"self.{layer}_s"] = float(spans.self_time[selected].sum())
    return out

