"""Helpers for in-network devices that originate MTP packets.

Offloads running on switches (cache, aggregation) answer requests on behalf
of servers: they emit acknowledgements for packets they consume and inject
response messages addressed to clients.  Injected responses carry the
*server's* source address, like NetCache answering for the service VIP.
"""

from __future__ import annotations

from ..core.endpoint import ACK_SIZE
from ..core.header import KIND_ACK, KIND_DATA, MtpHeader
from ..core.message import Message
from ..net.node import Switch
from ..net.packet import DEFAULT_HEADER_BYTES, ECT_CAPABLE, Packet

__all__ = ["spoof_ack", "inject_message"]


def spoof_ack(switch: Switch, data_packet: Packet,
              header: MtpHeader) -> Packet:
    """Acknowledge a consumed data packet on behalf of its destination.

    The ACK echoes the path feedback accumulated *up to this device*, so the
    sender's pathlet windows reflect the path actually used — one of the
    reasons pathlet feedback composes with offloads that terminate messages
    mid-network.
    """
    ack_header = MtpHeader(KIND_ACK, header.dst_port, header.src_port,
                           header.msg_id, ts=switch.sim.now, ts_echo=header.ts)
    ack_header.sack.append((header.msg_id, header.pkt_num))
    ack_header.ack_path_feedback = list(header.path_feedback)
    ack = Packet(data_packet.dst, data_packet.src, ACK_SIZE, "mtp",
                 header=ack_header, ecn=ECT_CAPABLE,
                 entity=data_packet.entity,
                 flow_label=(data_packet.dst, header.msg_id, "ack"),
                 created_at=switch.sim.now)
    switch.forward(ack)
    return ack


def inject_message(switch: Switch, src_address: int, dst_address: int,
                   src_port: int, dst_port: int, size: int, payload=None,
                   tc: str = "default", priority: int = 0) -> Message:
    """Emit a complete MTP message from within the network.

    Injection is fire-and-forget: the device keeps no retransmission state
    (bounded-state offloads).  The receiver still ACKs each packet; those
    ACKs land at ``src_address``, whose endpoint ignores unknown message ids.
    """
    message = Message(size, priority=priority, tc=tc, payload=payload)
    for pkt_num, pkt_len in enumerate(message.packet_sizes):
        header = MtpHeader(KIND_DATA, src_port, dst_port, message.msg_id,
                           priority=priority, msg_len_bytes=message.size,
                           msg_len_pkts=message.n_packets, pkt_num=pkt_num,
                           pkt_offset=message.packet_offset(pkt_num),
                           pkt_len=pkt_len, ts=switch.sim.now)
        header.payload = payload
        packet = Packet(src_address, dst_address,
                        DEFAULT_HEADER_BYTES + pkt_len, "mtp", header=header,
                        ecn=ECT_CAPABLE, entity=tc,
                        flow_label=(src_address, message.msg_id),
                        created_at=switch.sim.now)
        switch.forward(packet)
    return message
