"""Shared wiring, reporting and sweep helpers for the experiment drivers."""

from __future__ import annotations

import importlib
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core import BlobSender, MtpStack
from ..core.pathlets import (DelayFeedbackSource, EcnFeedbackSource,
                             FeedbackSource, PathletRegistry,
                             RateFeedbackSource)
from ..net.link import Port
from ..net.node import Host, Switch
from ..net.queues import DropTailQueue
from ..net.topology import Network
from ..sim.engine import Simulator
from ..sim.units import gbps, microseconds, milliseconds
from ..transport import ConnectionCallbacks, MptcpStack, TcpStack

__all__ = ["attach_exclusion_lookup", "build_incast_star", "feedback_source",
           "start_long_flows", "format_table", "claim", "series_stats",
           "sweep_map", "ID_STREAMS", "reset_id_streams", "INCAST_RATE_BPS",
           "TCP_MIN_RTO_NS"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Process-global ID streams: (module path, attribute).  Their values reach
#: simulated behaviour — ECMP hashes flow labels built from host addresses
#: and message ids — so without a reset a run's results depend on how many
#: IDs the runs before it in the same process drew.
ID_STREAMS = (
    ("repro.net.packet", "_packet_ids"),
    ("repro.net.node", "_addresses"),
    ("repro.core.message", "_message_ids"),
    ("repro.core.reassembly", "_blob_ids"),
    ("repro.core.pathlets", "_pathlet_ids"),
    ("repro.transport.quic", "_connection_ids"),
    ("repro.transport.rdma", "_qp_numbers"),
    ("repro.transport.mptcp", "_meta_ids"),
    ("repro.transport.udp", "_datagram_ids"),
    ("repro.apps.kvs", "_request_ids"),
    ("repro.apps.rpc", "_rpc_ids"),
    ("repro.offloads.gateway", "_session_ids"),
)


def reset_id_streams() -> None:
    """Restart every stream in :data:`ID_STREAMS` at 1."""
    for module_path, attribute in ID_STREAMS:
        setattr(importlib.import_module(module_path), attribute,
                itertools.count(1))


def attach_exclusion_lookup(switch: Switch,
                            registry: PathletRegistry) -> None:
    """Let a switch honour MTP path-exclude lists using the registry."""
    switch.pathlet_lookup = registry.pathlet_of


#: Rate of every link of :func:`build_incast_star`.
INCAST_RATE_BPS = gbps(10)


def build_incast_star(sim: Simulator, n_senders: int, feedback_kind: str,
                      ) -> Tuple[Host, List[Host], Port]:
    """Hosts ``h0..`` into switch ``sw``, one bottleneck on to ``sink``.

    Every link runs at :data:`INCAST_RATE_BPS`; the bottleneck has a 5 us
    delay and a 256-packet queue marking ECN above 20, and its pathlet
    speaks ``feedback_kind`` feedback: "ecn", "rate" (RCP, for a 15 us
    average RTT) or "delay".  Returns ``(sink, senders, bottleneck port)``.
    """
    net = Network(sim)
    sw = net.add_switch("sw")
    sink = net.add_host("sink")
    bottleneck = net.connect(sw, sink, INCAST_RATE_BPS, microseconds(5),
                             queue_factory=lambda: DropTailQueue(256, 20))
    senders = []
    for index in range(n_senders):
        host = net.add_host(f"h{index}")
        net.connect(host, sw, INCAST_RATE_BPS, microseconds(1))
        senders.append(host)
    net.install_routes()
    port = bottleneck.port_a
    PathletRegistry(sim).register(port, feedback_source(
        feedback_kind, sim, port, 20, microseconds(15)))
    return sink, senders, port


def feedback_source(kind: str, sim: Simulator, port: Port,
                    ecn_threshold: int, avg_rtt_ns: int) -> FeedbackSource:
    """The feedback a pathlet at ``port`` speaks, by ``kind``.

    "ecn" marks above ``ecn_threshold`` packets (DCTCP-like), "rate" is
    RCP's explicit rate for an ``avg_rtt_ns`` average RTT, and any other
    kind is "delay" (Swift-like).
    """
    if kind == "ecn":
        return EcnFeedbackSource(ecn_threshold)
    if kind == "rate":
        return RateFeedbackSource(sim, port, avg_rtt_ns=avg_rtt_ns)
    return DelayFeedbackSource()


#: Minimum TCP retransmission timeout of every experiment's TCP flows.
#: Real stacks use 1 ms - 200 ms; the Figure-5 DCTCP baseline's goodput
#: is sensitive to it (see EXPERIMENTS.md).
TCP_MIN_RTO_NS = milliseconds(1)


def start_long_flows(protocol: str, sender: Host, receiver: Host,
                     on_bytes: Callable[[int], None], streams: int,
                     window_messages: int, tenant: Optional[str],
                     ) -> list:
    """Start ``streams`` long-lasting flows from ``sender`` to ``receiver``.

    ``protocol`` is "mtp" (each stream a never-ending blob of up to
    ``window_messages`` outstanding messages), "dctcp" or "mptcp" (one
    DCTCP connection, or two-subflow meta-connection, per stream).
    ``on_bytes(nbytes)`` sees every delivery at the receiver.  ``tenant``
    is the MTP traffic class or the TCP entity; None leaves the default.
    Returns the senders, whose ``retransmissions`` count: a list of the
    one MTP endpoint, or of the TCP/MPTCP connections.
    """
    if protocol == "mtp":
        sender_stack = MtpStack(sender)
        MtpStack(receiver).endpoint(
            port=100, on_message=lambda endpoint, message:
                on_bytes(message.size))
        endpoint = sender_stack.endpoint(tc=tenant or "default")
        for _ in range(streams):
            BlobSender(endpoint, receiver.address, 100,
                       total_bytes=1 << 40, window_messages=window_messages)
        return [endpoint]
    if protocol not in ("dctcp", "mptcp"):
        raise ValueError(f"unknown protocol {protocol!r}")
    stack_type = TcpStack if protocol == "dctcp" else MptcpStack
    sender_stack = stack_type(sender)
    receiver_stack = stack_type(receiver)
    options = dict(variant="dctcp", min_rto_ns=TCP_MIN_RTO_NS,
                   entity=tenant or "")
    receiver_stack.listen(
        80, lambda connection: ConnectionCallbacks(
            on_data=lambda c, nbytes: on_bytes(nbytes)), **options)
    return [sender_stack.connect(
        receiver.address, 80,
        ConnectionCallbacks(on_connected=lambda c: c.send(1 << 40)),
        **options) for _ in range(streams)]


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Plain-text table renderer for experiment reports."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [max(len(headers[col]),
                  max((len(row[col]) for row in cells), default=0))
              for col in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width)
                           for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(value.ljust(width)
                               for value, width in zip(row, widths)))
    return "\n".join(lines)


def claim(claim_id: str, statement: str, holds: bool) -> str:
    """One checkable paper claim as a report line.

    ``[CLAIM] <id>: <statement> ... HOLDS`` (or ``FAILS``).  Reports end
    with these lines, computed from their own results; the tier-1 test
    parses them, so ``claim_id`` must not contain spaces or colons.
    """
    verdict = "HOLDS" if holds else "FAILS"
    return f"[CLAIM] {claim_id}: {statement} ... {verdict}"


def series_stats(series: Sequence[Tuple[int, float]],
                 warmup_ns: int = 0) -> Dict[str, float]:
    """Mean/min/max/CoV of a ``(time, value)`` series after a warmup."""
    values = [value for time, value in series if time >= warmup_ns]
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "cov": 0.0}
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    std = variance ** 0.5
    return {
        "count": len(values),
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "cov": std / mean if mean else 0.0,
    }


def sweep_map(worker: Callable[[_ItemT], _ResultT],
              items: Sequence[_ItemT], jobs: int = 1) -> List[_ResultT]:
    """``[worker(item) for item in items]``, optionally across processes.

    Simulation points are independent: each builds its own simulator and
    draws randomness only from seeds in its item.  So the points can run
    in ``jobs`` worker processes, and the results still come back in input
    order (``executor.map`` semantics, never completion order): the
    merged output is the same for any ``jobs``.  ``worker`` must be a
    module-level (picklable) callable when ``jobs > 1``.  ``jobs <= 1``,
    or a single item, runs in-process.  A worker's exception propagates
    as itself.

    Workers are forked where the platform offers it: the kernel holds no
    threads or descriptors that fork poorly, and fork skips re-importing
    the package in every worker.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    # Imported here: the pool modules cost resident memory that a
    # single-process run never uses.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             mp_context=context) as pool:
        return list(pool.map(worker, items, chunksize=1))
