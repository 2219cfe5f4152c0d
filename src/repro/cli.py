"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    msc-repro list
    msc-repro run table1 [--scale paper|quick] [--seed 1] [--json out.json]
    msc-repro run all --scale quick
    msc-repro run all --jobs 4 --resume ckpt/ --retries 2  # fault-tolerant
    msc-repro robustness --scale quick    # fault-injection degradation
    msc-repro serve --port 7571   # long-lived planner service (JSONL)
    msc-repro describe            # workload summaries

The execution-control flags (``--jobs``, ``--retries``,
``--task-timeout``, ``--resume``) are accepted uniformly by ``run``,
``robustness`` and ``serve``.

(also available as ``python -m repro.cli``)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.config import SCALES
from repro.experiments.runner import (
    all_experiment_names,
    experiment_names,
    run_experiment,
)
from repro.util.serialization import dump_json


def add_execution_args(
    parser: argparse.ArgumentParser,
    *,
    jobs_help: str = "number of parallel workers",
) -> None:
    """The execution-control flags shared by ``run``/``robustness``/``serve``.

    Every command that executes placement work accepts the same four
    knobs, with the same spellings and defaults: ``--jobs``,
    ``--retries``, ``--task-timeout`` and ``--resume``.
    """
    parser.add_argument("--jobs", type=int, default=1, help=jobs_help)
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a task that raised, crashed, or hung up to this many "
        "extra times (with exponential backoff) before reporting it failed",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock bound; a task exceeding it is terminated "
        "(and retried if --retries allows)",
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="checkpoint directory: completed tasks are journaled there as "
        "they finish, and a re-run (or restarted server) pointed at the "
        "same directory restores them instead of recomputing — results "
        "stay byte-identical to an uninterrupted run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msc-repro",
        description=(
            "Reproduction of 'Maintaining Social Connections through "
            "Direct Link Placement in Wireless Networks' (ICDCS 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (table1, table2, fig1..fig5) or 'all'",
    )
    run.add_argument(
        "--scale",
        default="paper",
        choices=sorted(SCALES),
        help="parameter preset (default: paper)",
    )
    run.add_argument("--seed", type=int, default=1, help="base RNG seed")
    run.add_argument(
        "--json",
        default=None,
        help="write results to this JSON file (list of experiment dicts)",
    )
    run.add_argument(
        "--precision",
        type=int,
        default=4,
        help="decimal places in rendered tables",
    )
    run.add_argument(
        "--charts",
        action="store_true",
        help="also render figure data as ASCII charts",
    )
    run.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="run each experiment this many times (seed, seed+1, ...) and "
        "report mean +/- std",
    )
    add_execution_args(
        run,
        jobs_help="fan experiments (and their inner sweeps/trials) out "
        "across this many worker processes; results are byte-identical to "
        "a serial run",
    )

    robustness = sub.add_parser(
        "robustness",
        help="fault-injection study: placement degradation under shortcut "
        "outages, failure-probability drift, and node loss",
    )
    robustness.add_argument(
        "--scale", default="paper", choices=sorted(SCALES),
        help="parameter preset (default: paper)",
    )
    robustness.add_argument(
        "--seed", type=int, default=1, help="base RNG seed"
    )
    robustness.add_argument(
        "--json", default=None, help="write the result to this JSON file"
    )
    robustness.add_argument(
        "--precision", type=int, default=4,
        help="decimal places in rendered tables",
    )
    robustness.add_argument(
        "--charts", action="store_true",
        help="also render degradation curves as ASCII charts",
    )
    add_execution_args(
        robustness,
        jobs_help="fan (mode, severity) cells out across worker processes",
    )

    serve = sub.add_parser(
        "serve",
        help="long-lived planner service: warm substrates answer place/"
        "sigma/whatif requests over JSON lines (TCP or stdio)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (TCP mode)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 (the default) picks an ephemeral port and "
        "prints it on startup",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSONL over stdin/stdout instead of TCP (one-process "
        "pipelines, CI smokes)",
    )
    serve.add_argument(
        "--max-substrates",
        type=int,
        default=4,
        help="how many workload substrates stay resident (LRU beyond this)",
    )
    add_execution_args(
        serve,
        jobs_help="executor threads; same-substrate requests are always "
        "serialized, extra threads help when several substrates are hot",
    )

    sub.add_parser(
        "describe", help="print the generated workloads' summary statistics"
    )

    report = sub.add_parser(
        "report", help="combine saved --json results into a markdown report"
    )
    report.add_argument("json_files", nargs="+", help="result JSON files")
    report.add_argument(
        "--output", "-o", required=True, help="markdown file to write"
    )
    report.add_argument(
        "--title", default="MSC reproduction report", help="report heading"
    )
    return parser


def _cmd_list() -> int:
    paper = set(experiment_names())
    for name in all_experiment_names():
        tag = "" if name in paper else "  (supplementary)"
        print(f"{name}{tag}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names: List[str] = args.experiments
    if len(names) == 1 and names[0].lower() == "all":
        names = experiment_names()
    jobs = args.jobs
    results = []
    fault_tolerant = (
        args.resume is not None
        or args.retries > 0
        or args.task_timeout is not None
    )
    if args.seeds == 1 and (
        fault_tolerant or (jobs > 1 and len(names) > 1)
    ):
        # Fan whole experiments out; each carries its own wall-clock so the
        # summary can report the speedup over an equivalent serial run.
        # Failures (after the retry budget) are reported per task instead
        # of aborting the campaign; completed work is kept — and, with
        # --resume, journaled for the next invocation.
        from repro.experiments.runner import run_all_report

        wall_start = time.perf_counter()
        report = run_all_report(
            scale=args.scale,
            seed=args.seed,
            names=names,
            jobs=jobs,
            checkpoint_dir=args.resume,
            retries=args.retries,
            task_timeout=args.task_timeout,
        )
        wall = time.perf_counter() - wall_start
        timed = [entry for entry in report.results if entry is not None]
        for result, elapsed in timed:
            print(
                result.render(precision=args.precision, charts=args.charts)
            )
            print(f"[{result.name} finished in {elapsed:.1f}s]")
            print()
            results.append(result.to_json())
        serial_equivalent = sum(elapsed for _, elapsed in timed)
        speedup = serial_equivalent / wall if wall > 0 else float("inf")
        restored = (
            f"; {report.restored} restored from {args.resume}"
            if report.restored
            else ""
        )
        retried = (
            f"; {report.retried} attempt(s) retried" if report.retried else ""
        )
        print(
            f"[{len(timed)}/{len(names)} experiments in {wall:.1f}s wall "
            f"with --jobs {jobs}; serial-equivalent "
            f"{serial_equivalent:.1f}s; speedup {speedup:.1f}x"
            f"{restored}{retried}]"
        )
        print()
        if report.failures:
            for error in report.failures:
                print(f"FAILED: {error}", file=sys.stderr)
                if error.cause_traceback:
                    last = error.cause_traceback.strip().splitlines()[-1]
                    print(f"  cause: {last}", file=sys.stderr)
            hint = (
                f" re-run with --resume {args.resume} to retry only the "
                "failed experiment(s)."
                if args.resume
                else " pass --resume DIR to checkpoint completed work."
            )
            print(
                f"{len(report.failures)} experiment(s) failed; "
                f"{len(timed)} completed result(s) were kept.{hint}",
                file=sys.stderr,
            )
            if args.json and results:
                dump_json(results, args.json)
                print(f"wrote {args.json} (completed experiments only)")
            return 1
    else:
        from repro.experiments.runner import shared_workload_payload
        from repro.experiments.workloads import registered_workloads

        # One seed: build the workloads the experiments share once, APSP
        # included, as run_all_report does, so the sweep cells read them
        # instead of each regenerating its own. Results are
        # byte-identical either way.
        shared = (
            shared_workload_payload(names, args.scale, args.seed)
            if args.seeds == 1
            else {}
        )
        with registered_workloads(shared):
            for name in names:
                start = time.perf_counter()
                if args.seeds > 1:
                    from repro.exceptions import ValidationError
                    from repro.experiments.stats import run_with_seeds

                    try:
                        result = run_with_seeds(
                            name,
                            seeds=range(args.seed, args.seed + args.seeds),
                            scale=args.scale,
                            jobs=jobs,
                        )
                    except ValidationError as exc:
                        print(
                            f"[{name}: not aggregatable across seeds ({exc}); "
                            "falling back to a single run]"
                        )
                        result = run_experiment(
                            name, scale=args.scale, seed=args.seed, jobs=jobs
                        )
                else:
                    result = run_experiment(
                        name, scale=args.scale, seed=args.seed, jobs=jobs
                    )
                elapsed = time.perf_counter() - start
                print(
                    result.render(precision=args.precision, charts=args.charts)
                )
                print(f"[{name} finished in {elapsed:.1f}s]")
                print()
                results.append(result.to_json())
    if args.json:
        dump_json(results, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    fault_tolerant = (
        args.resume is not None
        or args.retries > 0
        or args.task_timeout is not None
    )
    start = time.perf_counter()
    if fault_tolerant:
        from repro.experiments.runner import run_all_report

        report = run_all_report(
            scale=args.scale,
            seed=args.seed,
            names=["robustness"],
            jobs=args.jobs,
            checkpoint_dir=args.resume,
            retries=args.retries,
            task_timeout=args.task_timeout,
        )
        if report.failures:
            for error in report.failures:
                print(f"FAILED: {error}", file=sys.stderr)
            return 1
        result, _ = next(
            entry for entry in report.results if entry is not None
        )
    else:
        result = run_experiment(
            "robustness", scale=args.scale, seed=args.seed, jobs=args.jobs
        )
    elapsed = time.perf_counter() - start
    print(result.render(precision=args.precision, charts=args.charts))
    print(f"[robustness finished in {elapsed:.1f}s]")
    if args.json:
        dump_json([result.to_json()], args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    return run_server(
        host=args.host,
        port=args.port,
        stdio=args.stdio,
        max_substrates=args.max_substrates,
        jobs=args.jobs,
        retries=args.retries,
        task_timeout=args.task_timeout,
        journal_dir=args.resume,
    )


def _cmd_describe() -> int:
    from repro.experiments.workloads import gowalla_workload, rg_workload
    from repro.graph.metrics import graph_stats

    rg = rg_workload(seed=1)
    print(f"RG workload:      {graph_stats(rg.graph)}")
    gowalla = gowalla_workload()
    print(f"Gowalla workload: {graph_stats(gowalla.graph)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "robustness":
        return _cmd_robustness(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "describe":
        return _cmd_describe()
    if args.command == "report":
        from repro.experiments.report import write_report

        write_report(args.json_files, args.output, title=args.title)
        print(f"wrote {args.output}")
        return 0
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
