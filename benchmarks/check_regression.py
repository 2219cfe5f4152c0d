"""Benchmark-regression gate — compares a fresh run against the committed
``BENCH_perf.json`` baseline.

Raw wall-clock times are machine-dependent, so the gate compares the
*relative* speedups measured on the same machine in the same process:

* σ point evaluation: the batched terminal-closure kernel against a fresh
  shortcut engine per placement, at paper scale (headline) and at the
  fig1 quick size, must not fall more than ``--tolerance`` (default 25%)
  below the committed baseline's. A drop means the batched kernel itself
  regressed — both numbers divide out the machine.
* ``--memory``: additionally runs the sparse-vs-dense oracle tier at
  n=2000 and asserts the sparse peak stays within the memory budget
  (≤ 25% of the dense peak for the same workload) with placements
  identical to the dense tier.
* ``--large-n``: additionally runs the hub-vs-sparse tier at n=10^4 and
  asserts the hub solve is ≥ 3× faster with a lower tracemalloc peak and
  an identical placement (the hub tier's acceptance floors).
* ``--serve``: additionally runs the serve warm-cache bench and asserts a
  warm (resident-substrate) request is ≥ 5× faster than a cold
  rebuild-per-request, with identical placements.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        [--baseline BENCH_perf.json] [--tolerance 0.25] [--memory] \
        [--large-n] [--serve]

Exit status 0 = no regression; 1 = regression (messages on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

try:
    from benchmarks.perf_harness import (
        bench_hub_tier,
        bench_oracle_tiers,
        bench_point_eval,
        bench_serve_warm_cache,
    )
except ImportError:  # invoked as `python benchmarks/check_regression.py`
    from perf_harness import (
        bench_hub_tier,
        bench_oracle_tiers,
        bench_point_eval,
        bench_serve_warm_cache,
    )

#: Memory-gate workload: n=2000 with p_t=0.03 keeps a comfortable margin
#: below the 0.25 budget (the committed BENCH_perf.json carries the
#: tighter p_t=0.04 point, which sits right at the budget).
MEMORY_GATE_SIZES = [(2000, 0.03, 60, 5, True)]
MEMORY_BUDGET_RATIO = 0.25

#: Large-n gate: the smallest hub-scale size (the full 10^5 series lives
#: in BENCH_perf.json; one point keeps the gate fast). Floors are the
#: tentpole's acceptance criteria, machine-relative because speedup and
#: mem_ratio divide out the hardware.
LARGE_N_GATE_SIZES = [(10_000, 0.03, 60, 5)]
LARGE_N_SPEEDUP_FLOOR = 3.0

#: Serve gate: a warm (resident-substrate) request must be at least this
#: many times faster than a cold rebuild-per-request — the acceptance
#: floor of the planner-service work, machine-relative by construction.
SERVE_WARM_SPEEDUP_FLOOR = 5.0


def check_point_eval_speedups(baseline: dict, tolerance: float) -> list:
    """Compare fresh σ point-evaluation speedups against *baseline*."""
    failures = []
    base = baseline["sigma_point_eval"]
    current = bench_point_eval()
    for label, key in (("headline", "speedup"), ("quick", "quick_speedup")):
        base_speedup = float(base[key])
        now_speedup = float(current[key])
        floor = base_speedup * (1.0 - tolerance)
        status = "ok" if now_speedup >= floor else "REGRESSION"
        print(
            f"sigma point-eval {label} speedup: baseline "
            f"{base_speedup:.3f}, current {now_speedup:.3f} "
            f"(floor {floor:.3f}) [{status}]"
        )
        if now_speedup < floor:
            failures.append(
                f"sigma point-eval {label} speedup {now_speedup:.3f} fell "
                f"more than {tolerance:.0%} below baseline "
                f"{base_speedup:.3f}"
            )
    return failures


def check_memory_budget() -> list:
    """Run the sparse-vs-dense tier and enforce the peak-memory budget."""
    failures = []
    entry = bench_oracle_tiers(sizes=MEMORY_GATE_SIZES)["sizes"][0]
    ratio = float(entry["mem_ratio"])
    status = "ok" if ratio <= MEMORY_BUDGET_RATIO else "REGRESSION"
    print(
        f"oracle tier n={entry['n']} p_t={entry['p_t']}: sparse peak "
        f"{entry['sparse_peak_mb']}MB vs dense {entry['dense_peak_mb']}MB "
        f"-> ratio {ratio:.3f} (budget {MEMORY_BUDGET_RATIO}) [{status}]"
    )
    if ratio > MEMORY_BUDGET_RATIO:
        failures.append(
            f"sparse peak is {ratio:.3f} of dense (budget "
            f"{MEMORY_BUDGET_RATIO}) at n={entry['n']}"
        )
    if not entry.get("placements_identical"):
        failures.append("sparse placements diverged from dense")
    return failures


def check_large_n() -> list:
    """Run the hub-vs-sparse tier at hub scale and enforce the floors."""
    failures = []
    entry = bench_hub_tier(sizes=LARGE_N_GATE_SIZES)["sizes"][0]
    speedup = float(entry["speedup"])
    mem_ratio = float(entry["mem_ratio"])
    status = (
        "ok"
        if speedup >= LARGE_N_SPEEDUP_FLOOR and mem_ratio < 1.0
        else "REGRESSION"
    )
    print(
        f"hub tier n={entry['n']}: solve {entry['hub_s']}s vs sparse "
        f"{entry['sparse_s']}s -> speedup {speedup:.3f} (floor "
        f"{LARGE_N_SPEEDUP_FLOOR}), mem ratio {mem_ratio:.3f} "
        f"(budget < 1.0) [{status}]"
    )
    if speedup < LARGE_N_SPEEDUP_FLOOR:
        failures.append(
            f"hub-tier speedup {speedup:.3f} below floor "
            f"{LARGE_N_SPEEDUP_FLOOR} at n={entry['n']}"
        )
    if mem_ratio >= 1.0:
        failures.append(
            f"hub-tier peak memory is {mem_ratio:.3f} of sparse "
            f"(must be < 1.0) at n={entry['n']}"
        )
    if not entry.get("placements_identical"):
        failures.append("hub placements diverged from sparse")
    return failures


def check_serve_warm_cache() -> list:
    """Run the serve warm-vs-cold bench and enforce the speedup floor."""
    failures = []
    entry = bench_serve_warm_cache()
    speedup = float(entry["speedup"])
    status = (
        "ok" if speedup >= SERVE_WARM_SPEEDUP_FLOOR else "REGRESSION"
    )
    print(
        f"serve warm cache n={entry['n']}: cold "
        f"{entry['cold_s_per_request']}s/req vs warm "
        f"{entry['warm_s_per_request']}s/req -> speedup {speedup:.3f} "
        f"(floor {SERVE_WARM_SPEEDUP_FLOOR}) [{status}]"
    )
    if speedup < SERVE_WARM_SPEEDUP_FLOOR:
        failures.append(
            f"serve warm-cache speedup {speedup:.3f} below floor "
            f"{SERVE_WARM_SPEEDUP_FLOOR} at n={entry['n']}"
        )
    if not entry.get("placements_identical"):
        failures.append("warm placements diverged from cold")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_perf.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative speedup drop before failing (default 0.25)",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also enforce the sparse-tier peak-memory budget at n=2000",
    )
    parser.add_argument(
        "--large-n",
        action="store_true",
        help="also enforce the hub-tier speedup/memory floors at n=10^4",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also enforce the serve warm-cache speedup floor (warm "
        "resident-substrate requests >= 5x faster than cold rebuilds)",
    )
    args = parser.parse_args()

    with open(args.baseline) as handle:
        baseline = json.load(handle)

    failures = check_point_eval_speedups(baseline, args.tolerance)
    if args.memory:
        failures.extend(check_memory_budget())
    if args.large_n:
        failures.extend(check_large_n())
    if args.serve:
        failures.extend(check_serve_warm_cache())

    if failures:
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
