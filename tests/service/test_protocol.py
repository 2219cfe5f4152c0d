"""Tests for the planner-service wire protocol (repro.service.protocol)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TaskTimeoutError
from repro.service.protocol import (
    ProtocolError,
    coerce_seed,
    encode_response,
    error_response,
    ok_response,
    parse_pairs,
    parse_request,
    parse_workload,
    workload_key,
)


class TestParseRequest:
    def test_valid_request(self):
        payload = parse_request('{"op": "ping", "id": 7}')
        assert payload == {"op": "ping", "id": 7}

    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            parse_request("{not json")

    def test_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request("[1, 2, 3]")

    def test_unknown_op_carries_request_id(self):
        with pytest.raises(ProtocolError, match="unknown op") as info:
            parse_request('{"op": "frobnicate", "id": 42}')
        assert info.value.request_id == 42

    def test_missing_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request('{"id": 1}')


class TestParseWorkload:
    def test_rg_defaults_filled(self):
        spec = parse_workload(
            {"workload": {"kind": "rg", "seed": 1, "n": 50}}
        )
        assert spec == {
            "kind": "rg", "seed": 1, "n": 50,
            "radius": 0.2, "max_link_failure": 0.08,
        }

    def test_gowalla(self):
        spec = parse_workload({"workload": {"kind": "gowalla", "seed": 42}})
        assert spec == {"kind": "gowalla", "seed": 42}

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown workload kind"):
            parse_workload({"workload": {"kind": "mesh"}})

    def test_missing_spec(self):
        with pytest.raises(ProtocolError, match="workload"):
            parse_workload({})

    def test_bad_n(self):
        with pytest.raises(ProtocolError, match="positive int"):
            parse_workload({"workload": {"kind": "rg", "n": -3}})

    def test_key_is_order_independent(self):
        a = parse_workload(
            {"workload": {"kind": "rg", "seed": 1, "n": 50}}
        )
        b = dict(reversed(list(a.items())))
        assert workload_key(a) == workload_key(b)

    def test_list_seed_round_trips_as_tuple(self):
        spec = parse_workload(
            {"workload": {"kind": "rg", "seed": [1, "bench"]}}
        )
        assert spec["seed"] == (1, "bench")
        assert coerce_seed([1, ["a", 2]]) == (1, ("a", 2))


class TestParsePairs:
    def test_valid(self):
        assert parse_pairs([[1, 2], [3, 4]], "t") == [(1, 2), (3, 4)]

    @pytest.mark.parametrize(
        "bad", ["nope", [[1]], [[1, 2, 3]], [["a", 2]], [None]]
    )
    def test_malformed(self, bad):
        with pytest.raises(ProtocolError):
            parse_pairs(bad, "t")


class TestResponses:
    def test_ok_envelope(self):
        assert ok_response(3, {"x": 1}) == {
            "id": 3, "ok": True, "result": {"x": 1},
        }

    def test_error_envelope_plain_exception(self):
        response = error_response(9, ValueError("boom"))
        assert response["ok"] is False
        assert response["error"]["type"] == "ValueError"
        assert "boom" in response["error"]["message"]

    def test_timeout_keeps_subclass_name(self):
        exc = TaskTimeoutError("slow", task="t", attempts=1)
        assert error_response(1, exc)["error"]["type"] == (
            "TaskTimeoutError"
        )

    def test_encode_is_one_json_line(self):
        line = encode_response(ok_response(1, {"a": 2}))
        assert line.endswith(b"\n")
        assert json.loads(line) == {"id": 1, "ok": True, "result": {"a": 2}}
