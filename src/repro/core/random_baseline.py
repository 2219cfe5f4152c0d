"""Random-selection baseline (paper §VII-C).

The paper's comparison baseline places ``k`` shortcut edges uniformly at
random, repeats the process 500 times, and keeps the placement maintaining
the most social connections. It is the natural "no algorithm" reference for
Figs. 1–2.

Trials are independent given their seeds, so the trial loop is the natural
unit of fan-out: the driver RNG only *spawns* one 64-bit seed per trial up
front (never feeds the trials from a shared stream), each trial replays
from its own seed, and the best-so-far fold walks the results in trial
order. Consequences: results are byte-identical at any ``jobs`` count, and
the first ``t`` trials of a longer run coincide with a ``trials=t`` run
(so more trials can never hurt).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.setfunction import SetFunctionProtocol
from repro.exceptions import SolverError
from repro.types import IndexPair, PlacementResult, normalize_index_pair
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int


def _trial_edges(trial_seed: int, n: int, k: int) -> List[IndexPair]:
    """The placement of one trial, replayed from its private seed."""
    rng = random.Random(trial_seed)
    chosen = set()
    while len(chosen) < k:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            chosen.add(normalize_index_pair(a, b))
    return sorted(chosen)


def _evaluate_trials(
    sigma_fn: SetFunctionProtocol, trial_seeds: Sequence[int], k: int
) -> List[Tuple[float, List[IndexPair]]]:
    """Draw every trial's placement, then evaluate them in one batch."""
    placements = [_trial_edges(ts, sigma_fn.n, k) for ts in trial_seeds]
    values = sigma_fn.value_many(placements)
    return [(float(value), edges) for value, edges in zip(values, placements)]


def _trial_batch(
    task: Tuple[MSCInstance, Sequence[int], int]
) -> List[Tuple[float, List[IndexPair]]]:
    """Evaluate a batch of trials (module-level so it can cross processes;
    the worker builds its own evaluator)."""
    instance, trial_seeds, k = task
    return _evaluate_trials(SigmaEvaluator(instance), trial_seeds, k)


def solve_random_baseline(
    instance: MSCInstance,
    seed: SeedLike = None,
    trials: int = 500,
    sigma: Optional[SetFunctionProtocol] = None,
    jobs: int = 1,
    **_ignored,
) -> PlacementResult:
    """Best of *trials* uniform random placements of ``k`` shortcut edges.

    Args:
        jobs: evaluate trial batches across this many worker processes.
            Only effective when *sigma* is ``None`` (a custom evaluator
            cannot be shipped to workers); the result is byte-identical to
            the serial run either way.
    """
    check_positive_int(trials, "trials")
    rng = ensure_rng(seed)
    sigma_fn = sigma if sigma is not None else SigmaEvaluator(instance)
    n = sigma_fn.n
    max_edges = n * (n - 1) // 2
    k = min(instance.k, max_edges)
    if n < 2:
        raise SolverError("random baseline needs at least two nodes")

    trial_seeds = [rng.getrandbits(64) for _ in range(trials)]
    if jobs > 1 and sigma is None:
        from repro.experiments.parallel import fanout

        workers = min(jobs, trials)
        bounds = [
            (trials * w // workers, trials * (w + 1) // workers)
            for w in range(workers)
        ]
        batches = fanout(
            _trial_batch,
            [(instance, trial_seeds[lo:hi], k) for lo, hi in bounds],
            jobs=jobs,
        )
        evaluated = [item for batch in batches for item in batch]
    else:
        evaluated = _evaluate_trials(sigma_fn, trial_seeds, k)

    best_edges: List[IndexPair] = []
    best_value = float(sigma_fn.value([]))
    trace: List[int] = []
    for value, edges in evaluated:
        if value > best_value:
            best_value = value
            best_edges = edges
        trace.append(int(best_value))

    satisfied_fn = getattr(sigma_fn, "satisfied", None)
    satisfied = satisfied_fn(best_edges) if satisfied_fn is not None else []
    return PlacementResult(
        algorithm="random",
        edges=instance.edges_to_nodes(best_edges),
        sigma=int(best_value),
        satisfied=satisfied,
        evaluations=trials,
        trace=trace,
        extras={"trials": trials},
    )
