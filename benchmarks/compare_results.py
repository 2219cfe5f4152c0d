"""Compare two ``repro run --json`` result files.

Usage (from the root of a checkout)::

    python benchmarks/compare_results.py EXPECTED.json ACTUAL.json

Integers, strings, booleans, nulls and the structure around them (dict
keys, list lengths, hence every edge list) must match exactly. Floats must
match within a relative tolerance of 1e-9, because a ν sum may differ in
its last bit between numpy builds. Exit status 0 when the files match, 1
with the path of every difference (at most 20 printed) otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, List

REL_TOL = 1e-9
MAX_PRINTED = 20


def differences(expected: Any, actual: Any, path: str = "$") -> List[str]:
    """Every place where *actual* departs from *expected*, as
    ``path: message`` strings."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0) or (
            math.isnan(expected) and math.isnan(actual)
        ):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if type(expected) is not type(actual):
        return [
            f"{path}: {type(expected).__name__} {expected!r} != "
            f"{type(actual).__name__} {actual!r}"
        ]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [
                f"{path}: keys {sorted(expected)} != {sorted(actual)}"
            ]
        out: List[str] = []
        for key in expected:
            out += differences(expected[key], actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (a, b) in enumerate(zip(expected, actual)):
            out += differences(a, b, f"{path}[{i}]")
        return out
    if expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("expected", help="reference result JSON")
    parser.add_argument("actual", help="result JSON to check")
    args = parser.parse_args(argv)
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(args.actual, encoding="utf-8") as fh:
        actual = json.load(fh)
    found = differences(expected, actual)
    for line in found[:MAX_PRINTED]:
        print(line)
    if found:
        print(f"{len(found)} difference(s)")
        return 1
    print(f"{args.actual} matches {args.expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
