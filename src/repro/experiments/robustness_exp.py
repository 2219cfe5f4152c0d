"""Supplementary experiment: graceful degradation under fault injection.

The paper optimizes σ against a *static* failure model; this study measures
what a finished AA placement is worth when the network degrades afterwards.
Three fault modes (see :mod:`repro.failure.injection`) are swept over a
severity grid; each cell reports the analytic σ on the perturbed network
and the Monte-Carlo delivery rate, so the degradation profile shows up in
both the objective and the simulated system.

Expected shape: severity 0 reproduces the unperturbed placement in every
mode; σ and delivery fall monotonically (modulo sampling noise) as severity
rises; shortcut outage at severity 1 strips the placement entirely, so its
σ collapses to the pairs the base graph already happens to maintain.

Each ``(mode, severity)`` cell derives all randomness from
``(seed, mode, severity)`` alone, so the sweep fans out across worker
processes without changing a single byte of output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.sandwich import SandwichApproximation
from repro.experiments.parallel import fanout
from repro.experiments.results import ExperimentResult
from repro.experiments.workloads import rg_workload
from repro.failure.injection import (
    MODES,
    FaultInjectionHarness,
    InjectionOutcome,
)
from repro.util.rng import SeedLike

#: Severity grids and Monte-Carlo trials per scale.
_SCALES: Dict[str, Dict] = {
    "paper": {
        "n": 100, "m": 40, "k": 6, "trials": 400,
        "severities": (0.0, 0.25, 0.5, 0.75, 1.0),
    },
    "quick": {
        "n": 50, "m": 12, "k": 3, "trials": 120,
        "severities": (0.0, 0.5, 1.0),
    },
}

_P_THRESHOLD = 0.1


def _config(scale: str) -> Dict:
    return _SCALES.get(scale, _SCALES["quick"])


#: Per-process harness cache, keyed by ``(scale, repr(seed))``.
#: :func:`run_robustness` fills it before its fan-out, so serial cells and
#: forked workers alike read the parent's harness.
_HARNESS_CACHE: Dict[Tuple[str, str], Tuple[FaultInjectionHarness, int]] = {}
_HARNESS_CACHE_MAX = 4


def _prepared_harness(
    scale: str, seed: SeedLike
) -> Tuple[FaultInjectionHarness, int]:
    """Workload → instance → AA placement → harness, cached per process
    (every cell of one sweep shares the same solved placement)."""
    cache_key = (scale, repr(seed))
    cached = _HARNESS_CACHE.get(cache_key)
    if cached is not None:
        return cached
    cfg = _config(scale)
    workload = rg_workload(seed=(seed, "robustness"), n=cfg["n"])
    instance = workload.instance(
        _P_THRESHOLD, m=cfg["m"], k=cfg["k"], seed=(seed, "pairs")
    )
    placement = SandwichApproximation(instance).solve()
    harness = FaultInjectionHarness(
        instance,
        placement.edges,
        trials=cfg["trials"],
        seed=(seed, "robustness"),
    )
    while len(_HARNESS_CACHE) >= _HARNESS_CACHE_MAX:
        _HARNESS_CACHE.pop(next(iter(_HARNESS_CACHE)))
    _HARNESS_CACHE[cache_key] = (harness, placement.sigma)
    return harness, placement.sigma


def _robustness_cell(
    task: Tuple[str, SeedLike, str, float]
) -> InjectionOutcome:
    """One ``(mode, severity)`` cell (module-level so it is picklable;
    a worker that did not inherit the harness cache rebuilds the
    placement from ``(scale, seed)`` and caches it)."""
    scale, seed, mode, severity = task
    harness, _sigma = _prepared_harness(scale, seed)
    return harness.run(mode, severity)


def run_robustness(
    scale: str = "paper", seed: SeedLike = 1, jobs: int = 1
) -> ExperimentResult:
    """Fault-injection degradation sweep over all modes and severities."""
    cfg = _config(scale)
    severities: Sequence[float] = cfg["severities"]
    harness, baseline_sigma = _prepared_harness(scale, seed)
    instance = harness.instance

    tasks = [
        (scale, seed, mode, severity)
        for mode in MODES
        for severity in severities
    ]
    outcomes: List[InjectionOutcome] = fanout(
        _robustness_cell, tasks, jobs=jobs
    )
    by_mode = {
        mode: outcomes[i * len(severities): (i + 1) * len(severities)]
        for i, mode in enumerate(MODES)
    }

    result = ExperimentResult(
        name="robustness",
        title="Placement robustness under link-failure fault injection",
        params={
            "scale": scale,
            "seed": seed,
            "n": instance.n,
            "m": instance.m,
            "k": instance.k,
            "p_t": _P_THRESHOLD,
            "trials": harness.trials,
            "baseline_sigma": baseline_sigma,
        },
    )

    rows: List[List[object]] = []
    for mode in MODES:
        for outcome in by_mode[mode]:
            rows.append(
                [
                    mode,
                    outcome.severity,
                    outcome.sigma,
                    outcome.sigma_fraction,
                    outcome.delivery_rate,
                    outcome.pairs_meeting_requirement,
                    outcome.dropped_shortcuts,
                    outcome.lost_nodes,
                ]
            )
    result.add_table(
        "degradation per fault mode and severity",
        [
            "mode", "severity", "sigma", "sigma frac", "delivery",
            f"pairs >= {1 - _P_THRESHOLD}", "lost edges", "lost nodes",
        ],
        rows,
    )
    result.add_series(
        "maintained fraction vs fault severity",
        "severity",
        list(severities),
        [
            (mode, [o.sigma_fraction for o in by_mode[mode]])
            for mode in MODES
        ],
    )
    result.add_series(
        "simulated delivery rate vs fault severity",
        "severity",
        list(severities),
        [
            (mode, [o.delivery_rate for o in by_mode[mode]])
            for mode in MODES
        ],
    )

    # Sanity: severity 0 must reproduce the unperturbed placement exactly.
    zero_sigmas = {mode: by_mode[mode][0].sigma for mode in MODES}
    consistent = all(s == baseline_sigma for s in zero_sigmas.values())
    result.notes.append(
        f"severity-0 sigma matches the unperturbed placement in all modes: "
        f"{consistent} (baseline {baseline_sigma})"
    )
    non_monotone = sum(
        1
        for mode in MODES
        for a, b in zip(by_mode[mode], by_mode[mode][1:])
        if b.sigma > a.sigma
    )
    result.notes.append(
        f"severity steps where sigma increased (expected ~0): {non_monotone}"
    )
    return result
