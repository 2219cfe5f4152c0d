"""Experiment registry and top-level runner.

``run_all`` optionally fans whole experiments out across worker processes
(``jobs > 1``); every experiment derives all randomness from its
``(name, scale, seed)`` task alone, so the combined output is
byte-identical to the serial run at any job count.

The runner is fault-tolerant: with ``checkpoint_dir`` set, every finished
``(experiment, scale, seed)`` task is journaled atomically the moment it
completes, a crashed/hung worker is retried up to ``retries`` extra times
on a fresh process, and a re-run pointed at the same directory restores
journaled tasks instead of recomputing them — producing byte-identical
final results, because each task's output is a pure function of its key.
"""

from __future__ import annotations

import inspect
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import ValidationError
from repro.experiments.results import ExperimentResult
from repro.experiments.parallel import FanoutReport, fanout_report
from repro.util.resilience import policy_for_retries
from repro.util.serialization import TaskJournal
from repro.experiments.ablations import (
    run_ablation_aea,
    run_ablation_ea_mutation,
    run_ablation_sandwich,
    run_ablation_warmstart,
)
from repro.experiments.delivery_exp import run_delivery
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.generality_exp import run_generality
from repro.experiments.msc_cn_exp import run_msc_cn
from repro.experiments.prediction_exp import run_prediction
from repro.experiments.replanning_exp import run_replanning
from repro.experiments.robustness_exp import run_robustness
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.workloads import (
    Workload,
    gowalla_workload,
    gowalla_workload_key,
    registered_workloads,
    rg_workload,
    rg_workload_key,
)
from repro.util.rng import SeedLike

Runner = Callable[..., ExperimentResult]

#: The paper's tables and figures.
EXPERIMENTS: Dict[str, Runner] = {
    "table1": run_table1,
    "table2": run_table2,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
}

#: Supplementary studies beyond the paper's evaluation (ablations and the
#: MSC-CN special case, which the paper proves about but never measures).
#: Included in lookups but not in "run all".
SUPPLEMENTARY: Dict[str, Runner] = {
    "ablation_sandwich": run_ablation_sandwich,
    "ablation_aea": run_ablation_aea,
    "ablation_ea": run_ablation_ea_mutation,
    "ablation_warmstart": run_ablation_warmstart,
    "msc_cn": run_msc_cn,
    "delivery": run_delivery,
    "prediction": run_prediction,
    "generality": run_generality,
    "replanning": run_replanning,
    "robustness": run_robustness,
}


def experiment_names() -> List[str]:
    """The paper's experiments (what "run all" runs)."""
    return sorted(EXPERIMENTS)


def all_experiment_names() -> List[str]:
    """Paper experiments plus supplementary studies."""
    return sorted({**EXPERIMENTS, **SUPPLEMENTARY})


def get_experiment(name: str) -> Runner:
    """Look up an experiment runner by id ("table1" ... "fig5", or a
    supplementary id like "ablation_aea")."""
    key = name.lower()
    if key in EXPERIMENTS:
        return EXPERIMENTS[key]
    if key in SUPPLEMENTARY:
        return SUPPLEMENTARY[key]
    raise ValidationError(
        f"unknown experiment {name!r}; "
        f"available: {', '.join(all_experiment_names())}"
    )


def run_experiment(
    name: str, scale: str = "paper", seed: SeedLike = 1, jobs: int = 1
) -> ExperimentResult:
    """Run one experiment by id.

    *jobs* is forwarded to runners that support internal fan-out (per-cell
    sweeps, trial batches) and ignored by the rest; it never changes the
    result, only the wall-clock.
    """
    runner = get_experiment(name)
    if jobs != 1 and "jobs" in inspect.signature(runner).parameters:
        return runner(scale=scale, seed=seed, jobs=jobs)
    return runner(scale=scale, seed=seed)


def _timed_experiment_task(
    task: Tuple[str, str, SeedLike]
) -> Tuple[ExperimentResult, float]:
    """Worker for the ``run_all`` fan-out: one experiment, with its own
    wall-clock (module-level so it is picklable)."""
    name, scale, seed = task
    start = time.perf_counter()
    result = run_experiment(name, scale=scale, seed=seed)
    return result, time.perf_counter() - start


def _task_key(task: Tuple[str, str, SeedLike]) -> List:
    """Journal key of a ``run_all`` task: the task itself. Seeds must be
    JSON-representable (ints/strings/tuples), which all CLI seeds are."""
    return list(task)


def _encode_timed(timed: Tuple[ExperimentResult, float]) -> Dict:
    result, elapsed = timed
    return {"result": result.to_json(), "elapsed": elapsed}


def _decode_timed(payload: Dict) -> Tuple[ExperimentResult, float]:
    return (
        ExperimentResult.from_json(payload["result"]),
        float(payload["elapsed"]),
    )


#: Experiments that read the scale's default RG workload
#: (``rg_workload(seed=seed, n=preset.rg_n)``).
_RG_N_USERS = frozenset({"table1", "fig2", "fig3", "fig4"})

#: Experiments that read the fixed Gowalla dataset.
_GOWALLA_USERS = frozenset({"table2", "fig2", "fig3", "fig4"})


def shared_workload_payload(
    names: List[str], scale: str, seed: SeedLike
) -> Dict[str, Workload]:
    """Every workload the selected experiments would otherwise build per
    task, keyed for :func:`~.workloads.registered_workloads`.

    ``run_all`` tasks share three heavy builds: the fixed Gowalla dataset
    (every seed, four experiments), the scale's default RG workload
    (four experiments per seed), and fig1's own RG size. Registered, each
    is built once in the parent and read by every task;
    :func:`~.workloads.rg_workload` builds from scratch on any key miss,
    so results are byte-identical with or without the registry.
    """
    from repro.experiments.config import SCALES

    preset = SCALES[scale]
    selected = {name.lower() for name in names}
    payload: Dict[str, Workload] = {}

    def add_rg(n: int) -> None:
        key = rg_workload_key(seed, n)
        if key not in payload:
            payload[key] = rg_workload(seed=seed, n=n)

    if selected & _RG_N_USERS:
        add_rg(preset.rg_n)
    if "fig1" in selected:
        add_rg(preset.fig1_n)
    if selected & _GOWALLA_USERS:
        payload[gowalla_workload_key()] = gowalla_workload()
    return payload


def run_all_report(
    scale: str = "paper",
    seed: SeedLike = 1,
    names: Optional[List[str]] = None,
    jobs: int = 1,
    *,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    retries: int = 0,
    task_timeout: Optional[float] = None,
) -> FanoutReport:
    """Fault-tolerant ``run_all`` returning a full :class:`FanoutReport`.

    Each element of ``report.results`` is ``(result, elapsed_seconds)`` in
    declared experiment order (``None`` where a task exhausted its retry
    budget — those tasks are listed per-task in ``report.failures``).
    With *checkpoint_dir*, completed tasks are journaled atomically as
    they finish and already-journaled tasks are restored instead of
    re-run, so a killed campaign resumes without losing (or re-spending)
    anything; tasks that do run produce byte-identical output to an
    uninterrupted run.

    The workloads the selected experiments share
    (:func:`shared_workload_payload`) are built once, APSP included, and
    registered for this call only, so each task reads the graph and matrix
    instead of regenerating them — the dominant per-task fixed cost.
    Forked workers inherit the registry; it never changes results.
    """
    selected = names if names is not None else experiment_names()
    journal = (
        TaskJournal(checkpoint_dir) if checkpoint_dir is not None else None
    )
    with registered_workloads(shared_workload_payload(selected, scale, seed)):
        return fanout_report(
            _timed_experiment_task,
            [(name, scale, seed) for name in selected],
            jobs=jobs,
            policy=policy_for_retries(retries),
            task_timeout=task_timeout,
            journal=journal,
            key_fn=_task_key,
            encode=_encode_timed,
            decode=_decode_timed,
        )


def run_all_timed(
    scale: str = "paper",
    seed: SeedLike = 1,
    names: Optional[List[str]] = None,
    jobs: int = 1,
    *,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    retries: int = 0,
    task_timeout: Optional[float] = None,
) -> List[Tuple[ExperimentResult, float]]:
    """Like :func:`run_all` but each result comes with its wall-clock
    seconds. With ``jobs > 1`` experiments run across worker processes;
    results stay in declared order and are byte-identical to serial.
    See :func:`run_all_report` for the fault-tolerance keywords; here an
    exhausted retry budget raises the first per-task
    :class:`~repro.exceptions.TaskError` (journaled completions are kept).
    """
    report = run_all_report(
        scale=scale,
        seed=seed,
        names=names,
        jobs=jobs,
        checkpoint_dir=checkpoint_dir,
        retries=retries,
        task_timeout=task_timeout,
    )
    report.raise_on_failure()
    return list(report.results)


def run_all(
    scale: str = "paper",
    seed: SeedLike = 1,
    names: Optional[List[str]] = None,
    jobs: int = 1,
    **fault_tolerance,
) -> List[ExperimentResult]:
    """Run every (or the selected) experiment, in declared order."""
    return [
        result
        for result, _ in run_all_timed(
            scale=scale, seed=seed, names=names, jobs=jobs,
            **fault_tolerance,
        )
    ]
