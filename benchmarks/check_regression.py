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
  identical to the dense tier; and runs the sandwich AA beside σ-greedy
  on one n=2000 sparse-tier instance and asserts the sandwich's
  tracemalloc peak stays within a fixed multiple of σ-greedy's.
* ``--large-n``: additionally runs the hub-vs-sparse tier at n=10^4 and
  compares it with the committed ``hub_tier_large_n`` entry for that
  size by the same ``--tolerance`` rule: the hub-over-sparse solve
  speedup must not fall more than the tolerance below the baseline's,
  the hub/sparse tracemalloc-peak ratio must not rise more than the
  tolerance above it, and the placements must be identical.
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
        bench_sandwich_memory,
        bench_serve_warm_cache,
    )
except ImportError:  # invoked as `python benchmarks/check_regression.py`
    from perf_harness import (
        bench_hub_tier,
        bench_oracle_tiers,
        bench_point_eval,
        bench_sandwich_memory,
        bench_serve_warm_cache,
    )

#: Memory-gate workload: n=2000 with p_t=0.03 keeps a comfortable margin
#: below the 0.25 budget (the committed BENCH_perf.json carries the
#: tighter p_t=0.04 point, which sits right at the budget).
MEMORY_GATE_SIZES = [(2000, 0.03, 60, 5, True)]
MEMORY_BUDGET_RATIO = 0.25

#: Sandwich memory gate: the sandwich's tracemalloc peak over σ-greedy's
#: on the same n=2000, p_t=0.03 sparse-tier instance. μ's masks and ν's
#: block span the pair endpoints' d_t-ball (r≈300 nodes) as σ's scan
#: does, which reads about 8. One n×n μ mask per open pair is m·n² bytes
#: (240 MB at m=60), about 340 times σ-greedy's peak; the ceiling sits 4×
#: above the first and 10× below the second.
SANDWICH_GATE_SIZES = [(2000, 0.03, 60, 5)]
SANDWICH_PEAK_RATIO_CEILING = 32.0

#: Large-n gate: the smallest hub-scale size, the first entry of the
#: committed ``hub_tier_large_n`` series (which runs up to 10^5; one point
#: keeps the gate fast). Speedup and mem_ratio divide out the hardware.
LARGE_N_GATE_SIZES = [(10_000, 0.03, 60, 5)]

#: Serve gate: a warm (resident-substrate) request must be at least this
#: many times faster than a cold rebuild-per-request — the acceptance
#: floor of the planner-service work, machine-relative by construction.
SERVE_WARM_SPEEDUP_FLOOR = 5.0


def _against_baseline(
    label: str, base: float, now: float, tolerance: float, *,
    ceiling: bool = False,
) -> list:
    """Hold a fresh ratio to its committed *base*: at least
    ``base * (1 - tolerance)``, or with *ceiling* (a ratio that must stay
    low) at most ``base * (1 + tolerance)``."""
    if ceiling:
        bound, kind, side = base * (1.0 + tolerance), "ceiling", "above"
        ok = now <= bound
    else:
        bound, kind, side = base * (1.0 - tolerance), "floor", "below"
        ok = now >= bound
    print(
        f"{label}: baseline {base:.3f}, current {now:.3f} "
        f"({kind} {bound:.3f}) [{'ok' if ok else 'REGRESSION'}]"
    )
    if ok:
        return []
    return [
        f"{label} {now:.3f} is more than {tolerance:.0%} {side} "
        f"baseline {base:.3f}"
    ]


def check_point_eval_speedups(baseline: dict, tolerance: float) -> list:
    """Compare fresh σ point-evaluation speedups against *baseline*."""
    failures = []
    base = baseline["sigma_point_eval"]
    current = bench_point_eval()
    for label, key in (("headline", "speedup"), ("quick", "quick_speedup")):
        failures += _against_baseline(
            f"sigma point-eval {label} speedup",
            float(base[key]),
            float(current[key]),
            tolerance,
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


def check_sandwich_memory() -> list:
    """Run the sandwich beside σ-greedy and enforce the peak ceiling."""
    entry = bench_sandwich_memory(sizes=SANDWICH_GATE_SIZES)["sizes"][0]
    ratio = float(entry["peak_ratio"])
    ok = ratio <= SANDWICH_PEAK_RATIO_CEILING
    print(
        f"sandwich n={entry['n']} p_t={entry['p_t']}: peak "
        f"{entry['sandwich_peak_mb']}MB vs sigma-greedy "
        f"{entry['sigma_greedy_peak_mb']}MB -> ratio {ratio:.2f} "
        f"(ceiling {SANDWICH_PEAK_RATIO_CEILING}) "
        f"[{'ok' if ok else 'REGRESSION'}]"
    )
    if ok:
        return []
    return [
        f"sandwich peak is {ratio:.2f}x sigma-greedy's (ceiling "
        f"{SANDWICH_PEAK_RATIO_CEILING}) at n={entry['n']}"
    ]


def check_large_n(baseline: dict, tolerance: float) -> list:
    """Run the hub-vs-sparse tier at hub scale and compare it with the
    committed entry for the same size."""
    base = baseline["hub_tier_large_n"]["sizes"][0]
    entry = bench_hub_tier(sizes=LARGE_N_GATE_SIZES)["sizes"][0]
    print(
        f"hub tier n={entry['n']}: solve {entry['hub_s']}s vs sparse "
        f"{entry['sparse_s']}s, peak {entry['hub_peak_mb']}MB vs "
        f"{entry['sparse_peak_mb']}MB"
    )
    if entry["n"] != base["n"]:
        return [
            f"hub-tier gate ran n={entry['n']} but the baseline entry is "
            f"n={base['n']}"
        ]
    failures = _against_baseline(
        "hub-tier speedup over sparse",
        float(base["speedup"]),
        float(entry["speedup"]),
        tolerance,
    )
    failures += _against_baseline(
        "hub-tier peak-memory ratio to sparse",
        float(base["mem_ratio"]),
        float(entry["mem_ratio"]),
        tolerance,
        ceiling=True,
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
        help="allowed relative drop of a speedup (or rise of a memory "
        "ratio) against the baseline before failing (default 0.25)",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also enforce the sparse-tier peak-memory budget and the "
        "sandwich's peak-memory ceiling at n=2000",
    )
    parser.add_argument(
        "--large-n",
        action="store_true",
        help="also hold the hub tier's speedup and memory ratio over "
        "sparse at n=10^4 to the baseline within --tolerance",
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
        failures.extend(check_sandwich_memory())
    if args.large_n:
        failures.extend(check_large_n(baseline, args.tolerance))
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
