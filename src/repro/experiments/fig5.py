"""Fig. 5: dynamic networks on the tactical mobility workload (paper §VII-E;
n=50, m=30 per topology, T=30; r=500, l=10, δ=0.05).

(a) total maintained connections across all time instances vs. budget k,
    for several p_t, comparing AA/EA/AEA on the summed objective;
(b) total (and per-instance average) maintained connections vs. the number
    of time instances T, for several k.
"""

from __future__ import annotations

from typing import List

from repro.experiments.config import Scale, get_scale
from repro.experiments.results import ExperimentResult
from repro.experiments.workloads import tactical_dynamic_instance
from repro.util.rng import SeedLike

AEA_POOL = 10
AEA_DELTA = 0.05


def run_fig5(scale: str = "paper", seed: SeedLike = 1) -> ExperimentResult:
    """Regenerate Fig. 5. Expected shapes: (a) AEA ≳ AA ≫ EA, all growing
    with k and p_t (AEA ≈ AA once nearly all pairs are maintained);
    (b) total maintained grows with T and k while the per-instance average
    decreases with T."""
    preset: Scale = get_scale(scale)
    result = ExperimentResult(
        name="fig5",
        title="Dynamic networks (tactical traces)",
        params={
            "scale": scale,
            "seed": seed,
            "n": preset.fig5_n,
            "m": preset.fig5_m,
            "T": preset.fig5_T,
            "iterations": preset.fig5_iterations,
            "pool_size": AEA_POOL,
            "delta": AEA_DELTA,
        },
    )

    # ---- (a): sweep k for each p_t ------------------------------------
    budgets = list(preset.fig5_k)
    series_a: List[tuple] = []
    for p_t in preset.fig5_p:
        dyn = tactical_dynamic_instance(
            p_t,
            m=preset.fig5_m,
            k=max(budgets),
            T=preset.fig5_T,
            seed=(seed, "fig5a", p_t),
            n=preset.fig5_n,
        )
        # One AA object at the largest budget serves every k: each greedy
        # placement of a smaller budget is a prefix of the largest one.
        aa = dyn.sandwich()
        aa_vals = [aa.solve(k=k).sigma for k in budgets]
        ea_vals, aea_vals = [], []
        for k in budgets:
            scoped = _with_budget(dyn, k)
            ea_vals.append(
                scoped.solve_ea(
                    iterations=preset.fig5_iterations,
                    seed=(seed, "ea", p_t, k),
                ).sigma
            )
            aea_vals.append(
                scoped.solve_aea(
                    iterations=preset.fig5_iterations,
                    pool_size=AEA_POOL,
                    delta=AEA_DELTA,
                    seed=(seed, "aea", p_t, k),
                ).sigma
            )
        series_a.append((f"AA p_t={p_t}", aa_vals))
        series_a.append((f"EA p_t={p_t}", ea_vals))
        series_a.append((f"AEA p_t={p_t}", aea_vals))
    result.add_series(
        f"(a) total maintained vs k (T={preset.fig5_T})",
        "k",
        budgets,
        series_a,
    )

    # ---- (b): sweep T for each k --------------------------------------
    sweep_T = list(preset.fig5_T_sweep)
    series_b: List[tuple] = []
    avg_series: List[tuple] = []
    for k in preset.fig5_T_k:
        totals, averages = [], []
        for T in sweep_T:
            dyn = tactical_dynamic_instance(
                preset.fig5_T_p,
                m=preset.fig5_m,
                k=k,
                T=T,
                seed=(seed, "fig5b", T),
                n=preset.fig5_n,
            )
            total = dyn.solve_sandwich().sigma
            totals.append(total)
            averages.append(total / T)
        series_b.append((f"total k={k}", totals))
        avg_series.append((f"avg/instance k={k}", averages))
    result.add_series(
        f"(b) total maintained vs T (p_t={preset.fig5_T_p}, AA)",
        "T",
        sweep_T,
        series_b,
    )
    result.add_series(
        "(b') per-instance average vs T",
        "T",
        sweep_T,
        avg_series,
    )
    return result


def _with_budget(dyn, k):
    """Dynamic instance view with a smaller budget (re-wraps the per-topology
    instances; objective caches are rebuilt lazily)."""
    from repro.core.problem import MSCInstance
    from repro.dynamics.series import DynamicMSCInstance

    instances = [
        MSCInstance(
            inst.graph,
            inst.pairs,
            k,
            d_threshold=inst.d_threshold,
            oracle=inst.oracle,
            require_initially_unsatisfied=False,
        )
        for inst in dyn.instances
    ]
    return DynamicMSCInstance(instances)
