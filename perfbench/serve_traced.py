"""Run ``repro serve`` with the benchmark's layer tracing installed.

Usage::

    python3 perfbench/serve_traced.py --spans OUT.npz -- serve [serve args]

Everything after ``--`` goes to the ``repro`` command line unchanged. The
recorded spans are written to OUT.npz when the server returns (after a
``shutdown`` request).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib.checkout import use_checkout_library  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    use_checkout_library()
    from benchlib.layers import install
    from benchlib.spans import Tracer
    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(command)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
