"""Fig. 3: AA vs. EA vs. AEA — maintained connections as a function of k
under different p_t, on the RG graph (a) and Gowalla (b) (paper §VII-D;
r=500, l=10, δ=0.05).

As in fig2, each ``(workload, p_t)`` cell derives every seed from its own
tuple, so cells fan out across processes with byte-identical results.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.aea import AdaptiveEvolutionaryAlgorithm
from repro.core.ea import EvolutionaryAlgorithm
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

AEA_POOL = 10
AEA_DELTA = 0.05


def _workload_for(kind: str, seed, preset: Scale) -> Tuple[Workload, int]:
    if kind == "rg":
        return rg_workload(seed=seed, n=preset.rg_n), preset.fig3_m_rg
    return gowalla_workload(), preset.fig3_m_gw


def _sweep_cell(task) -> Tuple[List[int], List[int], List[int]]:
    """One p_t column: AA, EA and AEA σ per budget."""
    scale, seed, kind, p_t = task
    preset = get_scale(scale)
    workload, m = _workload_for(kind, seed, preset)
    budgets = list(preset.fig3_k)
    iterations = preset.fig3_iterations
    instance = workload.instance(
        p_t, m=m, k=max(budgets), seed=(seed, workload.name, p_t)
    )
    # One AA object serves every budget (its greedy runs are prefix-
    # reused); it is dropped before EA and AEA run.
    aa = SandwichApproximation(instance)
    aa_values = [aa.solve(k=k).sigma for k in budgets]
    del aa
    ea_values, aea_values = [], []
    for k in budgets:
        ea_values.append(
            EvolutionaryAlgorithm(
                instance,
                iterations=iterations,
                seed=(seed, "ea", p_t, k),
            ).solve(k=k).sigma
        )
        aea_values.append(
            AdaptiveEvolutionaryAlgorithm(
                instance,
                iterations=iterations,
                pool_size=AEA_POOL,
                delta=AEA_DELTA,
                seed=(seed, "aea", p_t, k),
            ).solve(k=k).sigma
        )
    return aa_values, ea_values, aea_values


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
    for p_t, (aa_values, ea_values, aea_values) in zip(p_values, cells):
        series.append((f"AA p_t={p_t}", aa_values))
        series.append((f"EA p_t={p_t}", ea_values))
        series.append((f"AEA p_t={p_t}", aea_values))
    return series


def run_fig3(
    scale: str = "paper", seed: SeedLike = 1, jobs: int = 1
) -> ExperimentResult:
    """Regenerate Fig. 3. Expected shape: σ grows with k and p_t;
    AEA ≳ AA and both clearly above EA at the paper's r=500."""
    preset: Scale = get_scale(scale)
    budgets = list(preset.fig3_k)
    result = ExperimentResult(
        name="fig3",
        title="Maintained connections: AA vs EA vs AEA over k",
        params={
            "scale": scale,
            "seed": seed,
            "k": budgets,
            "iterations": preset.fig3_iterations,
            "pool_size": AEA_POOL,
            "delta": AEA_DELTA,
            "m_rg": preset.fig3_m_rg,
            "m_gowalla": preset.fig3_m_gw,
        },
    )

    result.add_series(
        f"(a) RG graph, n={preset.rg_n}, m={preset.fig3_m_rg}",
        "k",
        budgets,
        _sweep(scale, seed, "rg", preset.fig3_rg_p, jobs),
    )
    gowalla = gowalla_workload()
    result.add_series(
        f"(b) Gowalla, n={gowalla.graph.number_of_nodes()}, "
        f"m={preset.fig3_m_gw}",
        "k",
        budgets,
        _sweep(scale, seed, "gowalla", preset.fig3_gw_p, jobs),
    )
    return result
