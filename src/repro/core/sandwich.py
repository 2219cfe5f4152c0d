"""The sandwich Approximation Algorithm (AA) for general MSC (paper §V-B).

General MSC is non-submodular, so plain greedy has no guarantee. The sandwich
strategy greedily optimizes three functions — the submodular lower bound μ,
the objective σ itself, and the submodular upper bound ν — and returns
whichever of the three placements scores best under σ:

``F_app = argmax_{F ∈ {F_μ, F_σ, F_ν}} σ(F)``

with the data-dependent guarantee (Eq. 5 of the paper, practical form)

``σ(F_app) >= (σ(F_ν) / ν(F_ν)) · (1 - 1/e) · σ(F*)``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.bounds import MuFunction, NuFunction
from repro.core.evaluator import SigmaEvaluator
from repro.core.greedy import GreedyPrefix
from repro.core.problem import MSCInstance
from repro.core.setfunction import SetFunctionProtocol
from repro.types import IndexPair, PlacementResult

APPROX_FACTOR = 1.0 - 1.0 / math.e


def _coerce_integral(value: float):
    """Return an int when *value* is (numerically) integral — σ counts
    pairs — and the float itself otherwise (weighted objectives)."""
    rounded = int(round(value))
    return rounded if abs(value - rounded) < 1e-9 else value


class SandwichApproximation:
    """Sandwich AA bound together with its three greedy sub-solutions.

    The constructor accepts pre-built σ/μ/ν functions so the dynamic-network
    adapter (``repro.dynamics``) can substitute summed variants; by default
    the static functions for *instance* are built.

    The three greedy runs are kept between calls: a smaller budget's
    placement is a prefix of a larger one's (:class:`GreedyPrefix`), so a
    budget sweep over one object costs one greedy run per function at the
    largest budget, whatever order the budgets come in.
    """

    def __init__(
        self,
        instance: MSCInstance,
        *,
        sigma: Optional[SetFunctionProtocol] = None,
        mu: Optional[SetFunctionProtocol] = None,
        nu: Optional[SetFunctionProtocol] = None,
    ) -> None:
        self.instance = instance
        self.sigma = sigma if sigma is not None else SigmaEvaluator(instance)
        self.mu = mu if mu is not None else MuFunction(instance)
        self.nu = nu if nu is not None else NuFunction(instance)
        self._mu_greedy = GreedyPrefix(self.mu)
        self._sigma_greedy = GreedyPrefix(self.sigma)
        self._nu_greedy = GreedyPrefix(self.nu)

    def solve(self, k: Optional[int] = None) -> PlacementResult:
        """Run the three greedy placements and return the best under σ."""
        budget = self.instance.k if k is None else k
        f_mu = self._mu_greedy.placement(budget)
        f_sigma = self._sigma_greedy.placement(budget)
        f_nu = self._nu_greedy.placement(budget)

        candidates = {
            "mu": f_mu,
            "sigma": f_sigma,
            "nu": f_nu,
        }
        sigma_values = {
            name: _coerce_integral(float(self.sigma.value(edges)))
            for name, edges in candidates.items()
        }
        # Deterministic preference on ties: σ-greedy, then μ, then ν — the
        # σ-greedy solution is the natural default since it optimized the
        # true objective.
        order = ["sigma", "mu", "nu"]
        winner = max(order, key=lambda name: sigma_values[name])
        edges = candidates[winner]

        ratio = self.data_dependent_ratio(f_nu)
        satisfied = self._satisfied(edges)
        return PlacementResult(
            algorithm="sandwich",
            edges=self.instance.edges_to_nodes(edges),
            sigma=sigma_values[winner],
            satisfied=satisfied,
            evaluations=3 * budget,
            extras={
                "winner": winner,
                "sigma_mu": sigma_values["mu"],
                "sigma_sigma": sigma_values["sigma"],
                "sigma_nu": sigma_values["nu"],
                "edges_mu": self.instance.edges_to_nodes(f_mu),
                "edges_nu": self.instance.edges_to_nodes(f_nu),
                "ratio": ratio,
                "guarantee_factor": ratio * APPROX_FACTOR,
            },
        )

    def data_dependent_ratio(
        self, f_nu: Optional[Sequence[IndexPair]] = None
    ) -> float:
        """The practical ratio ``σ(F_ν) / ν(F_ν)`` of Eq. (5).

        *f_nu* may be passed when the ν-greedy solution is already available;
        otherwise the ν-greedy placement at the instance budget is used. When
        ``ν(F_ν) = 0`` nothing is coverable at all, σ is identically its base
        value, and the bound is vacuous; we return 1.0 in that degenerate
        case.
        """
        if f_nu is None:
            f_nu = self._nu_greedy.placement(self.instance.k)
        nu_value = float(self.nu.value(f_nu))
        if nu_value <= 0.0:
            return 1.0
        return float(self.sigma.value(f_nu)) / nu_value

    def _satisfied(self, edges: Sequence[IndexPair]):
        satisfied_fn = getattr(self.sigma, "satisfied", None)
        if satisfied_fn is None:
            return []
        return satisfied_fn(edges)


def solve_sandwich(
    instance: MSCInstance, seed=None, **_ignored
) -> PlacementResult:
    """Registry-compatible wrapper (AA is deterministic; *seed* unused)."""
    return SandwichApproximation(instance).solve()
