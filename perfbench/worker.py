"""One benchmark workload, set up and run in a fresh process.

Usage::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        [--setup-only] [--spans OUT.npz]

Prints ``{"event": "ready"}`` once set up (the parent times set-up up to
that line) and, unless ``--setup-only``, one ``{"event": "result", ...}``
line after the timed phase and the output checks. With ``--spans`` the
library's layers are traced and the spans written to OUT.npz (for the
serve workload the traced process is the server).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib.checkout import use_checkout_library  # noqa: E402


def emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    use_checkout_library()
    from benchlib.workloads import WORKLOADS, self_peak_rss_mb

    serve = args.workload == "serve"
    patcher = tracer = None
    if args.spans is not None and not serve:
        from benchlib.layers import install
        from benchlib.spans import Tracer

        tracer = Tracer()
        patcher = install(tracer)
    if serve:
        workload = WORKLOADS["serve"](args.seed, spans_path=args.spans)
    else:
        workload = WORKLOADS[args.workload](args.seed)

    outcome = None
    try:
        workload.setup(args.seconds)
        emit({"event": "ready"})
        if not args.setup_only:
            outcome = workload.run(args.seconds)
            peak_rss_mb = self_peak_rss_mb()
            if patcher is not None:
                patcher.restore()
    finally:
        workload.teardown()
    if outcome is None:
        return 0
    if serve:
        peak_rss_mb = workload.peak_rss_mb
    checks = workload.checks()
    if tracer is not None:
        tracer.write(args.spans)
    emit({
        "event": "result",
        "run_s": outcome.run_s,
        "op_ms": [v if math.isfinite(v) else None for v in outcome.op_ms],
        "completed_per_s": outcome.completed_per_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "peak_rss_mb": peak_rss_mb,
        "extras": outcome.extras,
        "checks": [[c.name, c.ok, c.detail] for c in checks],
        "digest": workload.digest(),
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
