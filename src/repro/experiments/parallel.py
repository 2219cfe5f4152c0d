"""Deterministic, fault-tolerant process fan-out for the experiment layer.

Experiments decompose into independent tasks (whole experiments in
``run all``, per-``p_t`` sweep cells inside a figure, trial batches inside
the random baseline). :func:`fanout` maps a module-level worker over such a
task list, serially or across a :class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism contract
--------------------

Results are **byte-identical at any job count** because

* every task carries its own seed material (derived from the experiment
  seed, never from a shared RNG consumed in loop order),
* the same worker function runs per task whether in-process or in a pool,
* results are assembled in task order, never in completion order.

Fault tolerance
---------------

A crashed worker process, a raising worker, or a hung worker no longer
aborts the whole map:

* each task gets up to ``policy.attempts`` attempts with exponential
  backoff and deterministic jitter (:class:`~repro.util.resilience.RetryPolicy`);
* a task that kills its worker (``BrokenProcessPool``) is retried on a
  **fresh** pool; in-flight siblings that died with the pool are retried
  too;
* a task that exceeds *task_timeout* has its worker terminated (the pool
  is rebuilt; innocent in-flight siblings are requeued without being
  charged an attempt);
* completed results can be checkpointed to a
  :class:`~repro.util.serialization.TaskJournal` the moment they arrive,
  and journaled tasks are skipped on a resumed run;
* a task that exhausts its budget is reported as a
  :class:`~repro.exceptions.TaskError` carrying the task itself, the
  attempt count and the original traceback — never a bare
  ``BrokenProcessPool`` with no clue which ``(experiment, scale, seed)``
  died.

Retries re-run the worker with the task's own seed material, so a retry
that succeeds produces byte-identical output to a first-attempt success —
fault tolerance does not erode the determinism contract.

Workers must be module-level functions with picklable arguments —
closures (e.g. ``ratio_grid`` factories) cannot cross process boundaries,
so parallel workers get their workloads from ``(scale, seed, ...)``
tuples instead of capturing them.

Shared workloads
----------------

On Linux the pool always forks, whatever the interpreter's default start
method. Workers therefore inherit the parent's state at pool start: the
workloads a run registered
(:func:`~repro.experiments.workloads.registered_workloads`) with their
APSP matrices, and any per-process cache the parent filled before the
fan-out. A worker that does not inherit them (another platform's start
method) misses and rebuilds, with the same result.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.exceptions import TaskError, TaskTimeoutError, ValidationError
from repro.util.resilience import RetryPolicy, retry_call
from repro.util.serialization import TaskJournal
from repro.util.validation import check_positive_int

T = TypeVar("T")
R = TypeVar("R")

#: Idle poll interval (seconds) while waiting for backoff windows.
_POLL_INTERVAL = 0.05

#: How often (seconds) a pool worker checks that its parent is alive.
_PARENT_POLL_INTERVAL = 0.2


def resolve_jobs(jobs: int) -> int:
    """Validate a ``--jobs``-style argument (must be a positive int)."""
    return check_positive_int(jobs, "jobs")


@dataclass
class FanoutReport:
    """Outcome of a fault-tolerant fan-out.

    Attributes:
        results: per-task results in task order; ``None`` where the task
            failed (see *failures*).
        failures: exhausted-budget errors, in task order; empty on full
            success.
        restored: tasks restored from the journal instead of run.
        retried: failed attempts that were retried across all tasks.
    """

    results: List[Optional[Any]] = field(default_factory=list)
    failures: List[TaskError] = field(default_factory=list)
    restored: int = 0
    retried: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> None:
        """Re-raise the first failure (task order) if any task failed."""
        if self.failures:
            raise self.failures[0]


def fanout(
    worker: Callable[[T], R],
    tasks: Sequence[T],
    jobs: int = 1,
    *,
    policy: Optional[RetryPolicy] = None,
    task_timeout: Optional[float] = None,
    journal: Optional[TaskJournal] = None,
    key_fn: Optional[Callable[[T], Any]] = None,
    encode: Optional[Callable[[R], Any]] = None,
    decode: Optional[Callable[[Any], R]] = None,
) -> List[R]:
    """Map *worker* over *tasks*, optionally across worker processes.

    With ``jobs <= 1`` (or fewer than two tasks to run) the map runs
    in-process; otherwise a :class:`ProcessPoolExecutor` with
    ``min(jobs, len(tasks))`` workers is used. Either way the result list
    is in task order and each element is computed by the same call
    ``worker(task)``, so output does not depend on the job count.

    Failures raise :class:`~repro.exceptions.TaskError` identifying the
    task (after the retry budget, if any, is exhausted); completed tasks
    already checkpointed to *journal* are never lost. See
    :func:`fanout_report` for the keyword arguments and for collecting
    per-task failures instead of raising on the first.
    """
    report = fanout_report(
        worker,
        tasks,
        jobs,
        policy=policy,
        task_timeout=task_timeout,
        journal=journal,
        key_fn=key_fn,
        encode=encode,
        decode=decode,
    )
    report.raise_on_failure()
    return list(report.results)


def fanout_report(
    worker: Callable[[T], R],
    tasks: Sequence[T],
    jobs: int = 1,
    *,
    policy: Optional[RetryPolicy] = None,
    task_timeout: Optional[float] = None,
    journal: Optional[TaskJournal] = None,
    key_fn: Optional[Callable[[T], Any]] = None,
    encode: Optional[Callable[[R], Any]] = None,
    decode: Optional[Callable[[Any], R]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> FanoutReport:
    """Fault-tolerant :func:`fanout` that collects failures per task.

    Args:
        policy: retry schedule; default is a single attempt (no retries).
        task_timeout: per-attempt wall-clock bound in seconds. In the
            process pool the hung worker is terminated; in-process a
            daemon thread is abandoned.
        journal: checkpoint store. Completed tasks are recorded the moment
            they finish; tasks already recorded are restored instead of
            re-run (their results are byte-identical by the determinism
            contract, so a resumed campaign equals an uninterrupted one).
        key_fn: task -> JSON-serializable journal key (required with
            *journal*; also used to label errors and seed backoff jitter).
        encode / decode: result <-> JSON-serializable journal payload
            (default: identity — results must then be JSON-serializable).

    Returns:
        A :class:`FanoutReport`; task failures are collected, not raised.
    """
    resolve_jobs(jobs)
    tasks = list(tasks)
    policy = policy or RetryPolicy()
    if journal is not None and key_fn is None:
        raise ValidationError("journal requires key_fn to derive task keys")
    key_of = key_fn if key_fn is not None else (lambda task: task)
    encode = encode if encode is not None else (lambda result: result)
    decode = decode if decode is not None else (lambda payload: payload)

    report = FanoutReport(results=[None] * len(tasks))
    to_run: List[int] = []
    for i, task in enumerate(tasks):
        if journal is not None:
            try:
                report.results[i] = decode(journal.load(key_of(task)))
            except KeyError:
                to_run.append(i)
            else:
                report.restored += 1
        else:
            to_run.append(i)

    failures: Dict[int, TaskError] = {}

    def record(i: int, result: R) -> None:
        report.results[i] = result
        if journal is not None:
            journal.put(key_of(tasks[i]), encode(result))

    if jobs <= 1 or len(to_run) <= 1:
        _run_serial(
            worker, tasks, to_run, policy, task_timeout, key_of,
            record, failures, report, sleep,
        )
    else:
        _run_pool(
            worker, tasks, to_run, jobs, policy, task_timeout, key_of,
            record, failures, report, sleep,
        )

    report.failures = [failures[i] for i in sorted(failures)]
    return report


def _run_serial(
    worker, tasks, to_run, policy, task_timeout, key_of,
    record, failures, report, sleep,
) -> None:
    for i in to_run:
        def _note_retry(attempt: int, _exc: BaseException) -> None:
            if attempt < policy.attempts:
                report.retried += 1

        try:
            result = retry_call(
                worker,
                (tasks[i],),
                policy=policy,
                key=key_of(tasks[i]),
                timeout=task_timeout,
                sleep=sleep,
                on_failure=_note_retry,
            )
        except TaskError as exc:
            failures[i] = exc
        else:
            record(i, result)


def _init_worker(parent_pid: int) -> None:
    """Pool initializer: exit with the parent. A worker whose parent was
    killed would otherwise block on the call queue forever."""
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,), daemon=True
    ).start()


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_INTERVAL)
    os._exit(1)


def _terminate_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut *pool* down; with *kill*, terminate its worker processes (the
    only way to reclaim a hung worker)."""
    if kill:
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
    pool.shutdown(wait=not kill, cancel_futures=True)


def _run_pool(
    worker, tasks, to_run, jobs, policy, task_timeout, key_of,
    record, failures, report, sleep,
) -> None:
    max_workers = min(jobs, len(to_run))
    attempts = {i: 0 for i in to_run}
    eligible = {i: 0.0 for i in to_run}  # monotonic time gate (backoff)
    pending = list(to_run)
    # Fork on Linux, so every pool (including one rebuilt after a crash or
    # timeout) inherits the registered workloads; see the module docs.
    context = (
        multiprocessing.get_context("fork")
        if sys.platform == "linux"
        else None
    )

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )

    pool = make_pool()
    running: Dict[Any, tuple] = {}  # future -> (index, deadline)

    def fail_attempt(i: int, tb: Optional[str], timed_out: bool) -> None:
        attempts[i] += 1
        if attempts[i] >= policy.attempts:
            error_cls = TaskTimeoutError if timed_out else TaskError
            reason = (
                f"exceeded its {task_timeout}s timeout" if timed_out
                else "failed (worker raised or died)"
            )
            failures[i] = error_cls(
                f"task {key_of(tasks[i])!r} {reason} after "
                f"{attempts[i]} attempt(s)",
                task=tasks[i],
                attempts=attempts[i],
                cause_traceback=tb,
            )
        else:
            report.retried += 1
            eligible[i] = time.monotonic() + policy.delay(
                attempts[i], key_of(tasks[i])
            )
            pending.append(i)

    try:
        while pending or running:
            now = time.monotonic()
            ready = sorted(i for i in pending if eligible[i] <= now)
            for i in ready[: max_workers - len(running)]:
                pending.remove(i)
                deadline = (
                    now + task_timeout if task_timeout else math.inf
                )
                running[pool.submit(worker, tasks[i])] = (i, deadline)

            if not running:
                # Everything left is backing off; sleep to the first gate.
                wake = min(eligible[i] for i in pending)
                sleep(max(wake - time.monotonic(), _POLL_INTERVAL))
                continue

            wait_timeout = None
            next_deadline = min(dl for _, dl in running.values())
            if next_deadline < math.inf:
                wait_timeout = max(next_deadline - time.monotonic(), 0.0)
            if pending:
                soonest = min(eligible[i] for i in pending)
                window = max(soonest - time.monotonic(), _POLL_INTERVAL)
                wait_timeout = (
                    window if wait_timeout is None
                    else min(wait_timeout, window)
                )
            done, _ = wait(
                set(running), timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )

            pool_broken = False
            for future in done:
                i, _deadline = running.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    fail_attempt(i, None, timed_out=False)
                except Exception:
                    fail_attempt(
                        i, traceback.format_exc(), timed_out=False
                    )
                else:
                    record(i, result)

            if pool_broken:
                # The dying worker poisoned the whole pool: every
                # in-flight sibling failed with it. Retry them all on a
                # fresh pool.
                for future, (i, _deadline) in list(running.items()):
                    fail_attempt(i, None, timed_out=False)
                running.clear()
                _terminate_pool(pool, kill=False)
                pool = make_pool()
                continue

            now = time.monotonic()
            expired = {
                future
                for future, (_i, deadline) in running.items()
                if deadline <= now
            }
            if expired:
                # A hung worker can only be reclaimed by terminating it,
                # which takes the pool down; innocent in-flight siblings
                # are requeued without being charged an attempt.
                for future, (i, _deadline) in list(running.items()):
                    if future in expired:
                        fail_attempt(i, None, timed_out=True)
                    else:
                        pending.append(i)
                running.clear()
                _terminate_pool(pool, kill=True)
                pool = make_pool()
    finally:
        _terminate_pool(pool, kill=False)
