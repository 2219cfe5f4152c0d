"""Long-lived planner service: warm substrates, one request at a time each.

``repro serve`` keeps :class:`~repro.core.substrate.Substrate` objects
(graph + distance oracle + shared engine cache) resident in an LRU keyed
by workload spec and answers ``place`` / ``sigma`` / ``whatif`` / ``stats``
requests over JSON lines — the "millions of users" shape from the ROADMAP:
thousands of social-pair placement requests amortizing one expensive
substrate build. See ``docs/service.md`` for the wire protocol.
"""

from repro.service.protocol import (
    ProtocolError,
    error_response,
    ok_response,
    parse_request,
    workload_key,
)
from repro.service.server import PlannerService, run_server
from repro.service.substrates import SubstrateLRU
from repro.service.client import ServiceClient

__all__ = [
    "PlannerService",
    "ProtocolError",
    "ServiceClient",
    "SubstrateLRU",
    "error_response",
    "ok_response",
    "parse_request",
    "run_server",
    "workload_key",
]
