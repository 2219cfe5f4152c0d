"""Small synchronous JSONL client for the planner service.

Used by the serve round-trip tests and the CI smoke script; also a handy
programmatic entry point (``with ServiceClient(port=...) as c:
c.place(...)``). Responses may arrive out of order — the server answers
each request as it completes — so the client matches them to requests
by ``id`` and parks early arrivals until their caller asks.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional

from repro.service.protocol import ProtocolError


class ServiceError(ProtocolError):
    """A structured error response, re-raised client-side.

    Attributes:
        error: the response's ``error`` object (``type``, ``message``, and
            for resilience-layer failures ``attempts``/``task``).
    """

    def __init__(self, error: Dict[str, Any]) -> None:
        super().__init__(
            f"{error.get('type', 'Error')}: {error.get('message', '')}"
        )
        self.error = error


class ServiceClient:
    """One TCP connection to a running planner service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._parked: Dict[Any, Dict[str, Any]] = {}

    # ----------------------------------------------------------- transport

    def send(self, payload: Dict[str, Any]) -> Any:
        """Send one request object; returns its assigned ``id``."""
        if "id" not in payload:
            self._next_id += 1
            payload = {**payload, "id": self._next_id}
        self._file.write((json.dumps(payload) + "\n").encode("utf-8"))
        self._file.flush()
        return payload["id"]

    def recv(self, request_id: Any) -> Dict[str, Any]:
        """The raw response for *request_id*, reading (and parking other
        requests' responses) as needed."""
        if request_id in self._parked:
            return self._parked.pop(request_id)
        while True:
            line = self._file.readline()
            if not line:
                raise ProtocolError(
                    "connection closed before response "
                    f"to request {request_id!r}"
                )
            response = json.loads(line)
            if response.get("id") == request_id:
                return response
            self._parked[response.get("id")] = response

    def request(self, op: str, **fields: Any) -> Any:
        """One round trip: send, await, unwrap.

        Raises:
            ServiceError: when the server answered with ``"ok": false``.
        """
        response = self.recv(self.send({"op": op, **fields}))
        if not response.get("ok"):
            raise ServiceError(response.get("error") or {})
        return response["result"]

    def request_many(
        self, payloads: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Send every payload before reading any response (the server
        works on them concurrently); returns raw responses in request
        order."""
        ids = [self.send(payload) for payload in payloads]
        return [self.recv(request_id) for request_id in ids]

    # ---------------------------------------------------------- op helpers

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def place(self, workload: Dict[str, Any], **fields: Any) -> Dict:
        return self.request("place", workload=workload, **fields)

    def sigma(self, workload: Dict[str, Any], **fields: Any) -> Dict:
        return self.request("sigma", workload=workload, **fields)

    def whatif(self, session: str, action: str, **fields: Any) -> Dict:
        return self.request(
            "whatif", session=session, action=action, **fields
        )

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
