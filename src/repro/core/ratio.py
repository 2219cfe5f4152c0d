"""Data-dependent approximation-ratio computation (paper §VII-B).

Tables I and II of the paper report the practical sandwich ratio
``σ(F_ν) / ν(F_ν)`` — the factor by which the AA guarantee
``σ(F_app) >= ratio · (1 - 1/e) · σ(F*)`` is scaled — across grids of the
failure threshold ``p_t`` and budget ``k``. This module computes single
ratios and full grids; the table experiments build on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.bounds import NuFunction
from repro.core.evaluator import SigmaEvaluator
from repro.core.greedy import GreedyPrefix, greedy_placement
from repro.core.problem import MSCInstance

APPROX_FACTOR = 1.0 - 1.0 / math.e


@dataclass(frozen=True)
class RatioReport:
    """One sandwich-ratio measurement.

    Attributes:
        ratio: ``σ(F_ν) / ν(F_ν)`` (1.0 when ν(F_ν)=0, the vacuous case).
        sigma_value: σ(F_ν).
        nu_value: ν(F_ν).
        k: budget used.
        guarantee: the overall factor ``ratio · (1 - 1/e)``.
    """

    ratio: float
    sigma_value: float
    nu_value: float
    k: int
    @property
    def guarantee(self) -> float:
        return self.ratio * APPROX_FACTOR


def sandwich_ratio(
    instance: MSCInstance,
    k: Optional[int] = None,
    *,
    sigma: Optional[SigmaEvaluator] = None,
    nu: Optional[NuFunction] = None,
) -> RatioReport:
    """Compute ``σ(F_ν)/ν(F_ν)`` for *instance* at budget *k*.

    The ν-greedy solution is computed per call; pass pre-built *sigma* /
    *nu* functions to share their setup between calls. A sweep over many
    budgets of one instance is :func:`ratio_grid`'s job: it runs ν-greedy
    once, at the largest budget.
    """
    budget = instance.k if k is None else k
    sigma_fn = sigma if sigma is not None else SigmaEvaluator(instance)
    nu_fn = nu if nu is not None else NuFunction(instance)
    return _ratio_at(sigma_fn, nu_fn, greedy_placement(nu_fn, budget), budget)


def _ratio_at(sigma_fn, nu_fn, f_nu, k: int) -> RatioReport:
    """The ratio report of the ν-greedy placement *f_nu* at budget *k*."""
    nu_value = float(nu_fn.value(f_nu))
    sigma_value = float(sigma_fn.value(f_nu))
    ratio = 1.0 if nu_value <= 0 else sigma_value / nu_value
    return RatioReport(
        ratio=ratio,
        sigma_value=sigma_value,
        nu_value=nu_value,
        k=k,
    )


def ratio_grid(
    instance_factory,
    p_thresholds: Sequence[float],
    budgets: Sequence[int],
    draws: int = 1,
) -> Dict[float, List[RatioReport]]:
    """Ratio grid over ``p_t x k``, in the layout of paper Tables I/II.

    With a small pair count (the paper's Table I uses m=17) a single
    random pair selection quantizes σ(F_ν) to a couple of integers, so each
    cell is averaged over *draws* independent pair selections.

    Args:
        instance_factory: callable ``(p_t, draw_index) -> MSCInstance``
            building the instance for one threshold column and draw (the
            pair set depends on both).
        p_thresholds: the ``p_t`` column values.
        budgets: the ``k`` row values.
        draws: pair selections averaged per cell.

    Returns:
        Mapping ``p_t -> [RatioReport per k]``; with ``draws > 1`` each
        report carries the *mean* ratio and the mean σ/ν values.
    """
    grid: Dict[float, List[RatioReport]] = {}
    for p_t in p_thresholds:
        accumulators = [[0.0, 0.0, 0.0] for _ in budgets]  # ratio, σ, ν
        for draw in range(draws):
            instance = instance_factory(p_t, draw)
            sigma_fn = SigmaEvaluator(instance)
            nu_fn = NuFunction(instance)
            # Every budget's ν-greedy placement is a prefix of the largest
            # budget's, so ν-greedy runs once per instance.
            nu_greedy = GreedyPrefix(nu_fn)
            for i, k in enumerate(budgets):
                report = _ratio_at(
                    sigma_fn, nu_fn, nu_greedy.placement(k), k
                )
                accumulators[i][0] += report.ratio
                accumulators[i][1] += report.sigma_value
                accumulators[i][2] += report.nu_value
        grid[p_t] = [
            RatioReport(
                ratio=acc[0] / draws,
                sigma_value=acc[1] / draws,
                nu_value=acc[2] / draws,
                k=k,
            )
            for acc, k in zip(accumulators, budgets)
        ]
    return grid
