"""A key-value store application over MTP messages.

The motivating workload of Figure 1: clients issue GET/PUT requests as
independent messages, so an in-network cache
(:class:`repro.offloads.cache.InNetworkCache`) can interpose on whole
requests and answer hot keys without touching the backend.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from ..core.endpoint import DeliveredMessage, MtpEndpoint
from ..sim.engine import Simulator

__all__ = ["KvRequest", "KvResponse", "KvsServer", "KvsClient",
           "REQUEST_SIZE"]

_request_ids = itertools.count(1)

#: Wire size of a GET/PUT request message (single packet by design — the
#: bounded-state property offloads rely on).
REQUEST_SIZE = 128
#: Size of a value stored or requested without an explicit size.
DEFAULT_VALUE_SIZE = 1024


class KvRequest:
    """GET/PUT request payload."""

    __slots__ = ("request_id", "op", "key", "value", "value_size",
                 "reply_port")

    def __init__(self, request_id: int, op: str, key: str, reply_port: int,
                 value=None, value_size: int = 0):
        if op not in ("GET", "PUT"):
            raise ValueError(f"unknown op {op!r}")
        self.request_id = request_id
        self.op = op
        self.key = key
        self.value = value
        self.value_size = value_size
        self.reply_port = reply_port

    def __repr__(self) -> str:
        return f"<KvRequest #{self.request_id} {self.op} {self.key!r}>"


class KvResponse:
    """Response payload; ``served_by`` records cache vs backend."""

    __slots__ = ("request_id", "key", "value", "hit", "served_by")

    def __init__(self, request_id: int, key: str, value, hit: bool,
                 served_by: str):
        self.request_id = request_id
        self.key = key
        self.value = value
        self.hit = hit
        self.served_by = served_by

    def __repr__(self) -> str:
        return (f"<KvResponse #{self.request_id} {self.key!r} "
                f"from {self.served_by}>")


class KvsServer:
    """Backend store: answers GETs, applies PUTs.

    ``service_time_ns`` models per-request backend latency — the quantity
    an in-network cache saves on hits.
    """

    def __init__(self, endpoint: MtpEndpoint, service_time_ns: int = 0):
        self.endpoint = endpoint
        self.sim: Simulator = endpoint.sim
        self.service_time_ns = service_time_ns
        self.store: Dict[str, object] = {}
        self.value_sizes: Dict[str, int] = {}
        self.gets_served = 0
        self.puts_served = 0
        endpoint.on_message = self._on_message

    def put(self, key: str, value, value_size: Optional[int] = None) -> None:
        """Populate the store directly (test/bootstrap path)."""
        self.store[key] = value
        self.value_sizes[key] = value_size if value_size is not None \
            else DEFAULT_VALUE_SIZE

    def _on_message(self, endpoint: MtpEndpoint,
                    message: DeliveredMessage) -> None:
        request = message.payload
        if not isinstance(request, KvRequest):
            return
        self.sim.schedule(self.service_time_ns, self._serve, message, request)

    def _serve(self, message: DeliveredMessage, request: KvRequest) -> None:
        if request.op == "PUT":
            self.put(request.key, request.value,
                     request.value_size or DEFAULT_VALUE_SIZE)
            self.puts_served += 1
            response = KvResponse(request.request_id, request.key, None,
                                  hit=True, served_by="server")
            size = REQUEST_SIZE
        else:
            value = self.store.get(request.key)
            self.gets_served += 1
            response = KvResponse(request.request_id, request.key, value,
                                  hit=value is not None, served_by="server")
            size = self.value_sizes.get(request.key,
                                        DEFAULT_VALUE_SIZE)
        self.endpoint.send_message(message.src_address, request.reply_port,
                                   max(1, size), payload=response)


class KvsClient:
    """Issues GET/PUT requests and records response latency and origin."""

    def __init__(self, endpoint: MtpEndpoint, server_address: int,
                 server_port: int):
        self.endpoint = endpoint
        self.sim: Simulator = endpoint.sim
        self.server_address = server_address
        self.server_port = server_port
        self._pending: Dict[int, Dict] = {}
        self.responses: list = []  # (request_id, latency_ns, KvResponse)
        endpoint.on_message = self._on_message

    def get(self, key: str, on_response: Optional[Callable] = None) -> int:
        """Issue a GET; returns the request id."""
        return self._send("GET", key, None, 0, on_response)

    def put(self, key: str, value, value_size: int = 1024,
            on_response: Optional[Callable] = None) -> int:
        """Issue a PUT; returns the request id."""
        return self._send("PUT", key, value, value_size, on_response)

    def hits_by_origin(self) -> Dict[str, int]:
        """How many responses came from each server ("cache"/"server")."""
        origins: Dict[str, int] = {}
        for _, _, response in self.responses:
            origins[response.served_by] = \
                origins.get(response.served_by, 0) + 1
        return origins

    def _send(self, op: str, key: str, value, value_size: int,
              on_response: Optional[Callable]) -> int:
        request_id = next(_request_ids)
        request = KvRequest(request_id, op, key, self.endpoint.port,
                            value=value, value_size=value_size)
        self._pending[request_id] = {"sent_at": self.sim.now,
                                     "on_response": on_response}
        self.endpoint.send_message(self.server_address, self.server_port,
                                   REQUEST_SIZE, payload=request)
        return request_id

    def _on_message(self, endpoint: MtpEndpoint,
                    message: DeliveredMessage) -> None:
        response = message.payload
        if not isinstance(response, KvResponse):
            return
        pending = self._pending.pop(response.request_id, None)
        if pending is None:
            return  # duplicate answer (cache raced the backend)
        latency = self.sim.now - pending["sent_at"]
        self.responses.append((response.request_id, latency, response))
        if pending["on_response"] is not None:
            pending["on_response"](response.request_id, response)
