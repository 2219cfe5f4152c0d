"""Fig. 2: Approximation Algorithm vs. random selection — maintained
connections as a function of the budget k, for several thresholds p_t, on
both the RG graph and the Gowalla network (paper §VII-C).

Each ``(workload, p_t)`` sweep cell is independent — its instance and
baseline seeds are derived tuples, not positions in a shared stream — so
cells fan out across processes (``jobs``) with byte-identical results; the
per-cell worker rebuilds the (seed-deterministic) workload locally because
workload objects do not cross process boundaries.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.random_baseline import solve_random_baseline
from repro.core.sandwich import SandwichApproximation
from repro.experiments.config import Scale, get_scale
from repro.experiments.parallel import fanout
from repro.experiments.results import ExperimentResult
from repro.experiments.workloads import (
    Workload,
    gowalla_workload,
    rg_workload,
)
from repro.util.rng import SeedLike


def _workload_for(kind: str, seed, preset: Scale) -> Tuple[Workload, int]:
    """Rebuild the named workload (and its fig2 pair count) in-process."""
    if kind == "rg":
        return rg_workload(seed=seed, n=preset.rg_n), preset.fig2_m_rg
    return gowalla_workload(), preset.fig2_m_gw


def _sweep_cell(task) -> Tuple[List[int], List[int]]:
    """One p_t column of a sweep: AA and best-random σ per budget."""
    scale, seed, kind, p_t = task
    preset = get_scale(scale)
    workload, m = _workload_for(kind, seed, preset)
    budgets = list(preset.fig2_k)
    trials = preset.fig2_trials
    instance = workload.instance(
        p_t, m=m, k=max(budgets), seed=(seed, workload.name, p_t)
    )
    # One AA object serves every budget (its greedy runs are prefix-
    # reused); it is dropped before the baselines so μ's masks are not
    # resident while they run.
    aa = SandwichApproximation(instance)
    aa_values = [aa.solve(k=k).sigma for k in budgets]
    del aa
    random_values = [
        solve_random_baseline(
            _with_budget(instance, k),
            seed=(seed, workload.name, p_t, k),
            trials=trials,
        ).sigma
        for k in budgets
    ]
    return aa_values, random_values


def _sweep(
    scale: str,
    seed,
    kind: str,
    p_values: Sequence[float],
    jobs: int,
) -> List[tuple]:
    cells = fanout(
        _sweep_cell,
        [(scale, seed, kind, p_t) for p_t in p_values],
        jobs=jobs,
    )
    series = []
    for p_t, (aa_values, random_values) in zip(p_values, cells):
        series.append((f"AA p_t={p_t}", aa_values))
        series.append((f"random p_t={p_t}", random_values))
    return series


def _with_budget(instance, k):
    """Clone-with-budget: the random baseline reads ``instance.k``."""
    from repro.core.problem import MSCInstance

    return MSCInstance(
        instance.graph,
        instance.pairs,
        k,
        d_threshold=instance.d_threshold,
        oracle=instance.oracle,
        require_initially_unsatisfied=False,
    )


def run_fig2(
    scale: str = "paper", seed: SeedLike = 1, jobs: int = 1
) -> ExperimentResult:
    """Regenerate Fig. 2. Expected shape: AA dominates random at every
    (p_t, k); both curves grow with k and with p_t."""
    preset: Scale = get_scale(scale)
    budgets = list(preset.fig2_k)

    result = ExperimentResult(
        name="fig2",
        title="Maintained connections: AA vs. random selection",
        params={
            "scale": scale,
            "seed": seed,
            "k": budgets,
            "trials": preset.fig2_trials,
            "m_rg": preset.fig2_m_rg,
            "m_gowalla": preset.fig2_m_gw,
        },
    )

    result.add_series(
        f"(a) RG graph, n={preset.rg_n}, m={preset.fig2_m_rg}",
        "k",
        budgets,
        _sweep(scale, seed, "rg", preset.fig2_rg_p, jobs),
    )

    gowalla = gowalla_workload()
    result.add_series(
        f"(b) Gowalla, n={gowalla.graph.number_of_nodes()}, "
        f"m={preset.fig2_m_gw}",
        "k",
        budgets,
        _sweep(scale, seed, "gowalla", preset.fig2_gw_p, jobs),
    )
    return result
