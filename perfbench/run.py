"""End-to-end benchmark of the MSC reproduction, with a traced per-layer
breakdown.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``campaign``, ``reliability``, ``serve``, ``large_graph``,
or ``all``. Each workload runs in fresh worker processes
(``perfbench/worker.py``); the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from a traced run, plus
the tracing overhead against an untraced one) with ``--trace 1``. The exit
status is 0 when every output check passed, 1 when one failed, and 2 when
the benchmark could not run at all (no ``src/repro`` in the current
directory, a worker crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import stats  # noqa: E402
from benchlib.checkout import NO_LIBRARY, require_library  # noqa: E402

WORKLOAD_NAMES = ("campaign", "reliability", "serve", "large_graph")

#: Set-up samples per untraced run (``setup_s`` is their median).
SETUP_SAMPLES = 3

#: Every invocation must finish within this many seconds.
DEADLINE_S = 170.0

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("saturation_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
)

#: Latency reported in place of a percentile that a failure pushed to
#: infinity (JSON has no infinity).
FAILED_LATENCY_MS = 1e9

#: Nominal seconds of the fixed unit each experiment workload runs per
#: worker; --seconds sets how many units (at least one) make a run.
EXPERIMENT_UNIT_S = {"campaign": 11.0, "reliability": 17.0}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not produce a measurement."""


# ------------------------------------------------------------- workers


class WorkerRun:
    """One ``worker.py`` process: its set-up time and its result line."""

    def __init__(self, setup_s: float, result: Optional[Dict[str, Any]]):
        self.setup_s = setup_s
        self.result = result


def spawn(
    workload: str, seed: int, seconds: float, deadline: float, *,
    setup_only: bool = False, spans: Optional[str] = None,
) -> WorkerRun:
    """Run one worker to completion; ``setup_s`` runs from process start
    (interpreter start and imports included) to its ready line."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)),
    ]
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", spans]
    lines: "queue.Queue[Tuple[float, Optional[str]]]" = queue.Queue()
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)

    def pump() -> None:
        for line in process.stdout:
            lines.put((time.perf_counter(), line))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s: Optional[float] = None
    result = None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchmarkError(f"{workload} worker ran out of time")
            try:
                stamp, line = lines.get(timeout=remaining)
            except queue.Empty:
                raise BenchmarkError(
                    f"{workload} worker ran out of time"
                ) from None
            if line is None:
                break
            if not line.startswith('{"event"'):
                continue
            event = json.loads(line)
            if event["event"] == "ready":
                setup_s = stamp - start
            elif event["event"] == "result":
                result = event
        code = process.wait(timeout=max(deadline - time.perf_counter(), 1))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        reader.join(timeout=5)
        process.stdout.close()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise BenchmarkError(f"{workload} worker failed (exit {code})")
    return WorkerRun(setup_s, result)


def _op_ms(result: Dict[str, Any]) -> List[float]:
    return [math.inf if v is None else v for v in result["op_ms"]]


def _checks(results: List[Dict[str, Any]]) -> List[Tuple[str, bool, str]]:
    return [tuple(check) for result in results for check in result["checks"]]


# ------------------------------------------------------------- metrics


def end_to_end(
    workload: str, seed: int, seconds: float, deadline: float
) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics and the output checks."""
    units = (
        max(1, round(seconds / EXPERIMENT_UNIT_S[workload]))
        if workload in EXPERIMENT_UNIT_S else 1
    )
    setups = [
        spawn(workload, seed, seconds, deadline, setup_only=True).setup_s
        for _ in range(max(0, SETUP_SAMPLES - units))
    ]
    results = []
    for _ in range(units):
        run = spawn(workload, seed, seconds, deadline)
        setups.append(run.setup_s)
        results.append(run.result)

    op_ms = [v for result in results for v in _op_ms(result)]
    run_s = units * stats.median([result["run_s"] for result in results])
    latency = stats.timing_summary(op_ms)
    metrics = {
        "setup_s": stats.median(setups),
        "run_s": run_s,
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
        "saturation_rps": stats.median(
            [result["completed_per_s"] for result in results]
        ),
        "latency_p50_ms": stats.finite_or(latency["p50"], FAILED_LATENCY_MS),
        "latency_p95_ms": stats.finite_or(latency["high"], FAILED_LATENCY_MS),
    }
    notes = {
        "setup samples": len(setups),
        "measured workers": units,
        "latency samples": latency["count"],
        "p95 supported (>=10 samples beyond)": latency["supported"],
    }
    extras = results[0]["extras"]
    if "units" in extras:
        notes["units of fixed work per worker"] = extras["units"]
    if workload == "serve":
        notes.update({
            "open loop sent/ok/failed": extras["open"],
            "closed loop sent/ok/failed": extras["closed"],
            "generator p99 lag ms": round(extras["generator_lag_ms"], 2),
        })
    return {
        "metrics": metrics,
        "units": dict(END_TO_END),
        "checks": _checks(results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "digest": [result["digest"] for result in results],
        "notes": notes,
    }


def per_layer(
    workload: str, seed: int, seconds: float, deadline: float
) -> Dict[str, Any]:
    """An untraced and a traced run: per-layer metrics from the traced
    run's spans, and the tracing overhead between the two."""
    from benchlib.layers import PER_LAYER, layer_metrics
    from benchlib.spans import SpanSet

    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"{workload}-{seed}-spans.npz")
    plain = spawn(workload, seed, seconds, deadline).result
    traced = spawn(workload, seed, seconds, deadline, spans=spans_path).result
    spans = SpanSet.load(spans_path)

    metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
    metrics.update(layer_metrics(spans))
    if workload == "serve":
        metrics.update(serve_layers(traced, spans))
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain["run_s"]
    recorded = {spans.names[i] for i in set(spans.name_ids.tolist())}
    recorded |= {name for name, value in spans.counters.items() if value}
    exercised = {name.split(".", 1)[0] for name in recorded} | {"trace"}
    if workload == "serve":
        exercised.add("serve")
    return {
        "metrics": metrics,
        "units": {name: unit for name, unit, _better in PER_LAYER},
        "checks": _checks([plain, traced]),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "digest": [plain["digest"], traced["digest"]],
        "notes": {
            "spans recorded": len(spans.starts),
            "spans file": os.path.relpath(spans_path),
            "untraced run_s": plain["run_s"],
            "traced run_s": traced["run_s"],
        },
        "exercised": exercised,
    }


def serve_layers(result: Dict[str, Any], spans) -> Dict[str, float]:
    """Service-layer metrics: solve time from the server's spans, queueing
    as open-loop latency minus solve, batching and substrate counters from
    the ``stats`` op, and the load generator's own lateness."""
    extras = result["extras"]
    start, end = extras["open_window"]
    open_phase = (spans.starts >= start) & (spans.starts <= end)
    solves = spans.mask(["serve.solve"]) & open_phase
    solve_total_ms = float(spans.durations[solves].sum()) * 1e3
    latencies = [v for v in _op_ms(result) if math.isfinite(v)]
    st = extras["stats"]
    batching = st["batching"]
    substrates = st["substrates"]
    builds = spans.mask(["serve.substrate_build", "oracle.dense_build"])
    return {
        "serve.solve_ms": solve_total_ms / max(int(solves.sum()), 1),
        "serve.queue_ms": (sum(latencies) - solve_total_ms)
        / max(len(latencies), 1),
        "serve.batches": batching["batches"],
        "serve.batch_size_mean": batching["requests"]
        / max(batching["batches"], 1),
        "serve.max_batch_size": batching["max_batch_size"],
        "serve.substrate_hits": substrates["hits"],
        "serve.substrate_misses": substrates["misses"],
        "serve.substrate_build_s": float(spans.durations[builds].sum()),
        "serve.dense_substrates": sum(
            1 for entry in substrates["entries"] if entry["oracle"] == "dense"
        ),
        "serve.errors": st["errors"],
        "serve.generator_lag_ms": extras["generator_lag_ms"],
    }


# -------------------------------------------------------------- output


def _layer_of(metric: str) -> str:
    """``engine.hits`` -> ``engine``; ``self.engine_s`` -> ``engine``."""
    head, rest = metric.split(".", 1)
    return rest[: -len("_s")] if head == "self" else head


def report(workload: str, measured: Dict[str, Any]) -> bool:
    """Print the human-readable block for one workload; returns whether
    every check passed."""
    print(f"== {workload} ==")
    exercised = measured.get("exercised")
    for name, value in measured["metrics"].items():
        unit = measured["units"][name]
        shown = (
            "n/a (layer not exercised)"
            if exercised is not None and _layer_of(name) not in exercised
            else f"{value:.6g} {unit}"
        )
        print(f"  {name:<28} {shown}")
    for key, value in measured["notes"].items():
        print(f"  [{key}] {value}")
    ok = True
    for name, passed, detail in measured["checks"]:
        ok &= passed
        suffix = f" ({detail})" if detail else ""
        print(f"  check {'PASS' if passed else 'FAIL'}: {name}{suffix}")
    for digest in measured["digest"]:
        print(f"  digest: {json.dumps(digest, sort_keys=True)}")
    print(
        f"  attempted {measured['attempted']}, failed {measured['failed']}"
    )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOAD_NAMES, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_library()

    measure = per_layer if args.trace else end_to_end
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined: Dict[str, Any] = {}
    correct = True
    attempted = failed = 0
    for name in names:
        # Each workload gets its own time budget when running them all.
        deadline = time.perf_counter() + DEADLINE_S
        try:
            measured = measure(name, args.seed, args.seconds, deadline)
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return NO_LIBRARY
        correct &= report(name, measured)
        attempted += measured["attempted"]
        failed += measured["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in measured["metrics"].items():
            combined[prefix + metric] = {
                "value": value, "unit": measured["units"][metric],
            }
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
