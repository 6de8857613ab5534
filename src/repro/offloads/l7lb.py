"""L7 load balancer over MTP messages (Figure 1 item (2a)).

A host-resident balancer that spreads *request messages* across backend
replicas.  Because every request is an independent message, consecutive
requests from the same client fan out to different replicas — impossible
with pass-through TCP, and expensive with terminating TCP (Section 2.3).

Responses flow back through the balancer, which (a) restores the client
addressing and (b) harvests per-replica load signals (outstanding requests
and observed response latency, C3-style) to steer future requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..apps.kvs import KvRequest, KvResponse
from ..apps.rpc import RpcRequest, RpcResponse
from ..core.endpoint import DeliveredMessage, MtpEndpoint
from ..sim.engine import Simulator

__all__ = ["Replica", "L7LoadBalancer"]


class Replica:
    """A backend replica as seen by the balancer."""

    def __init__(self, address: int, port: int):
        self.address = address
        self.port = port
        self.outstanding = 0
        self.completed = 0
        self.ewma_latency_ns: Optional[float] = None

    def score(self) -> float:
        """Lower is better: outstanding load plus a latency penalty."""
        latency_penalty = (self.ewma_latency_ns or 0.0) / 1e6
        return self.outstanding + latency_penalty

    def __repr__(self) -> str:
        return (f"<Replica {self.address}:{self.port} "
                f"out={self.outstanding} done={self.completed}>")


class L7LoadBalancer:
    """Least-loaded message load balancer.

    Each request goes to the replica with the lowest :meth:`Replica.score`.

    Args:
        endpoint: the balancer's MTP endpoint (clients send requests here).
        replicas: backend list.
    """

    def __init__(self, endpoint: MtpEndpoint, replicas: List[Replica]):
        if not replicas:
            raise ValueError("need at least one replica")
        self.endpoint = endpoint
        self.sim: Simulator = endpoint.sim
        self.replicas = replicas
        #: request id -> (client_address, client_reply_port, replica, t0)
        self._pending: Dict[int, tuple] = {}
        self.requests_forwarded = 0
        self.responses_relayed = 0
        endpoint.on_message = self._on_message

    # -- request identification -------------------------------------------

    @staticmethod
    def _request_id(payload) -> Optional[int]:
        if isinstance(payload, KvRequest):
            return payload.request_id
        if isinstance(payload, RpcRequest):
            return payload.rpc_id
        return None

    @staticmethod
    def _response_id(payload) -> Optional[int]:
        if isinstance(payload, KvResponse):
            return payload.request_id
        if isinstance(payload, RpcResponse):
            return payload.rpc_id
        return None

    # -- balancing -----------------------------------------------------------

    def choose_replica(self) -> Replica:
        """The replica with the lowest score (first one on a tie)."""
        return min(self.replicas, key=Replica.score)

    def _on_message(self, endpoint: MtpEndpoint,
                    message: DeliveredMessage) -> None:
        payload = message.payload
        request_id = self._request_id(payload)
        if request_id is not None:
            self._forward_request(message, payload, request_id)
            return
        response_id = self._response_id(payload)
        if response_id is not None:
            self._relay_response(message, payload, response_id)

    def _forward_request(self, message: DeliveredMessage, payload,
                         request_id: int) -> None:
        replica = self.choose_replica()
        replica.outstanding += 1
        client_reply_port = payload.reply_port
        payload.reply_port = self.endpoint.port  # replies come back to us
        self._pending[request_id] = (message.src_address, client_reply_port,
                                     replica, self.sim.now)
        self.endpoint.send_message(replica.address, replica.port,
                                   message.size, payload=payload,
                                   priority=message.priority)
        self.requests_forwarded += 1

    def _relay_response(self, message: DeliveredMessage, payload,
                        response_id: int) -> None:
        entry = self._pending.pop(response_id, None)
        if entry is None:
            return
        client_address, client_reply_port, replica, started = entry
        replica.outstanding -= 1
        replica.completed += 1
        latency = self.sim.now - started
        if replica.ewma_latency_ns is None:
            replica.ewma_latency_ns = float(latency)
        else:
            replica.ewma_latency_ns = (0.8 * replica.ewma_latency_ns
                                       + 0.2 * latency)
        self.endpoint.send_message(client_address, client_reply_port,
                                   message.size, payload=payload,
                                   priority=message.priority)
        self.responses_relayed += 1

    def distribution(self) -> List[int]:
        """Completed request count per replica (balance diagnostics)."""
        return [replica.completed for replica in self.replicas]
