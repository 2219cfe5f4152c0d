"""Tests for benchmarks/compare_results.py, the paper-results identity
check."""

import json

from benchmarks.compare_results import differences, main

RESULT = {
    "name": "fig2",
    "params": {"k": [2, 4], "seed": 1},
    "series": [["AA p_t=0.1", [3, 5]], ["ratio", [0.25, 1e-3]]],
    "notes": ["edges 1-2; 3-4"],
    "flag": True,
    "missing": None,
}


def _copy():
    return json.loads(json.dumps(RESULT))


class TestDifferences:
    def test_identical(self):
        assert differences(RESULT, _copy()) == []

    def test_float_within_tolerance(self):
        actual = _copy()
        actual["series"][1][1][0] = 0.25 * (1 + 1e-12)
        assert differences(RESULT, actual) == []

    def test_float_beyond_tolerance(self):
        actual = _copy()
        actual["series"][1][1][1] = 1e-3 * (1 + 1e-6)
        assert differences(RESULT, actual) == [
            "$.series[1][1][1]: 0.001 != 0.001000001"
        ]

    def test_ints_and_strings_exact(self):
        actual = _copy()
        actual["series"][0][1][1] = 6
        actual["notes"][0] = "edges 1-2; 3-5"
        assert len(differences(RESULT, actual)) == 2

    def test_int_is_not_a_float(self):
        actual = _copy()
        actual["params"]["seed"] = 1.0
        assert differences(RESULT, actual) == [
            "$.params.seed: int 1 != float 1.0"
        ]

    def test_structure(self):
        actual = _copy()
        actual["params"]["k"].append(6)
        del actual["flag"]
        found = differences(RESULT, actual)
        assert len(found) == 1 and found[0].startswith("$: keys")
        actual["flag"] = True
        assert differences(RESULT, actual) == ["$.params.k: length 2 != 3"]


def test_main_exit_status(tmp_path, capsys):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps([RESULT]))
    same = tmp_path / "same.json"
    same.write_text(json.dumps([_copy()]))
    changed = _copy()
    changed["flag"] = False
    other = tmp_path / "other.json"
    other.write_text(json.dumps([changed]))
    assert main([str(expected), str(same)]) == 0
    assert main([str(expected), str(other)]) == 1
    assert "$[0].flag: True != False" in capsys.readouterr().out
