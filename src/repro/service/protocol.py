"""Wire protocol of the planner service: JSON lines, validated strictly.

Every request is one JSON object per line with an ``op`` field; every
response is one JSON object per line echoing the request's ``id`` and
carrying either ``"ok": true`` with a ``result`` or ``"ok": false`` with a
structured ``error`` — malformed input is *answered*, never allowed to
crash the server.

The module is deliberately dependency-light (pure parsing/validation) so
both the asyncio server and the synchronous test client share it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError

#: Operations the service understands.
OPS = ("place", "sigma", "whatif", "stats", "ping", "shutdown")

#: Workload kinds servable out of the box (the paper's static families).
WORKLOAD_KINDS = ("rg", "gowalla")

#: What-if session actions.
WHATIF_ACTIONS = (
    "open",
    "add",
    "remove",
    "undo",
    "reset",
    "adopt",
    "suggest",
    "apply_best",
    "summary",
    "close",
)


class ProtocolError(ReproError):
    """A request that cannot be served as asked (malformed JSON, unknown
    op/field, wrong type). Always answered with a structured error.

    ``request_id`` carries the offending request's ``id`` when parsing got
    far enough to see one, so even a rejected request gets a correlatable
    response."""

    def __init__(self, message: str, *, request_id: Any = None) -> None:
        super().__init__(message)
        self.request_id = request_id


def parse_request(line: str) -> Dict[str, Any]:
    """Parse and shallow-validate one request line.

    Raises:
        ProtocolError: on malformed JSON, a non-object payload, or an
            unknown/missing ``op``.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; available: {', '.join(OPS)}",
            request_id=payload.get("id"),
        )
    return payload


def require(payload: Dict[str, Any], field: str, types, what: str) -> Any:
    """Fetch a required typed field from *payload*."""
    value = payload.get(field)
    if value is None:
        raise ProtocolError(f"{what}: missing required field {field!r}")
    if not isinstance(value, types):
        raise ProtocolError(
            f"{what}: field {field!r} must be "
            f"{getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}"
        )
    return value


def coerce_seed(value: Any) -> Any:
    """JSON form of a seed → the library's ``SeedLike`` (lists become
    tuples recursively, so ``[1, "bench"]`` round-trips as ``(1, "bench")``)."""
    if isinstance(value, list):
        return tuple(coerce_seed(v) for v in value)
    return value


def parse_pairs(value: Any, what: str) -> List[Tuple[int, int]]:
    """``[[u, w], ...]`` → list of int node-label pairs."""
    if not isinstance(value, list):
        raise ProtocolError(f"{what}: pairs must be a list of [u, w] pairs")
    pairs: List[Tuple[int, int]] = []
    for entry in value:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, int) for x in entry)
        ):
            raise ProtocolError(
                f"{what}: each pair must be a [u, w] pair of node labels, "
                f"got {entry!r}"
            )
        pairs.append((entry[0], entry[1]))
    return pairs


def parse_workload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and normalize a request's ``workload`` spec.

    ``{"kind": "rg", "seed": 1, "n": 100}`` (radius / max_link_failure
    optional) or ``{"kind": "gowalla", "seed": 42}``; the normalized spec
    carries every generator knob so :func:`workload_key` is a full recipe.
    """
    spec = require(payload, "workload", dict, "workload spec")
    kind = spec.get("kind")
    if kind not in WORKLOAD_KINDS:
        raise ProtocolError(
            f"unknown workload kind {kind!r}; "
            f"available: {', '.join(WORKLOAD_KINDS)}"
        )
    if kind == "rg":
        n = spec.get("n", 100)
        if not isinstance(n, int) or n <= 0:
            raise ProtocolError(f"rg workload: n must be a positive int")
        normalized = {
            "kind": "rg",
            "seed": coerce_seed(spec.get("seed", 1)),
            "n": n,
            "radius": float(spec.get("radius", 0.2)),
            "max_link_failure": float(spec.get("max_link_failure", 0.08)),
        }
    else:
        normalized = {"kind": "gowalla", "seed": coerce_seed(spec.get("seed"))}
    return normalized


def workload_key(spec: Dict[str, Any]) -> str:
    """Canonical LRU key of a normalized workload spec."""
    return json.dumps(spec, sort_keys=True, default=repr)


def ok_response(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """Structured error envelope for *exc*: ``type`` is the exception
    class name, ``message`` its text."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def encode_response(response: Dict[str, Any]) -> bytes:
    """One response object → one JSONL-encoded line."""
    return (json.dumps(response, default=repr) + "\n").encode("utf-8")
