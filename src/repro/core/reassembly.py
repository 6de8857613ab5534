"""Blob mode: bulk data as a stream of single-packet messages.

Section 3.1.2: "To support applications generating blobs of data, MTP can
generate new messages for each packet.  A layer beneath the application in a
library or OS service is responsible for reassembling the blob and reliably
handling any packet loss and reordering of messages."  That layer is this
module: :class:`BlobSender` chops a blob into per-packet messages (so the
network may freely multiplex and reorder them) and :class:`BlobReceiver`
reassembles and reports completion.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from .endpoint import DeliveredMessage, MtpEndpoint
from .message import MTP_MAX_PAYLOAD

__all__ = ["BlobSender", "BlobReceiver", "BlobChunk"]

_blob_ids = itertools.count(1)


class BlobChunk:
    """Payload attached to each per-packet message of a blob."""

    __slots__ = ("blob_id", "offset", "total_bytes")

    def __init__(self, blob_id: int, offset: int, total_bytes: int):
        self.blob_id = blob_id
        self.offset = offset
        self.total_bytes = total_bytes

    def __repr__(self) -> str:
        return (f"BlobChunk(blob={self.blob_id}, offset={self.offset}, "
                f"total={self.total_bytes})")


class BlobSender:
    """Sends a large blob as independent single-packet messages.

    Each message carries one full MTP payload (the last one the rest).

    ``window_messages`` bounds how many chunk-messages are outstanding at
    once on top of the pathlet congestion windows (which still govern the
    actual packet release); it mainly bounds sender-side state.
    """

    def __init__(self, endpoint: MtpEndpoint, dst_address: int,
                 dst_port: int, total_bytes: int,
                 window_messages: int = 256,
                 on_complete: Optional[Callable] = None,
                 priority: int = 0):
        if total_bytes <= 0:
            raise ValueError("blob size must be positive")
        self.endpoint = endpoint
        self.dst_address = dst_address
        self.dst_port = dst_port
        self.total_bytes = total_bytes
        self.window_messages = window_messages
        self.on_complete = on_complete
        self.priority = priority
        self.blob_id = next(_blob_ids)
        self._next_offset = 0
        self._outstanding = 0
        self.bytes_acked = 0
        self.completed_at: Optional[int] = None
        self._fill()

    @property
    def done(self) -> bool:
        """True once every chunk has been acknowledged."""
        return self.bytes_acked >= self.total_bytes

    def _fill(self) -> None:
        while (self._outstanding < self.window_messages
               and self._next_offset < self.total_bytes):
            size = min(MTP_MAX_PAYLOAD, self.total_bytes - self._next_offset)
            chunk = BlobChunk(self.blob_id, self._next_offset,
                              self.total_bytes)
            self.endpoint.send_message(
                self.dst_address, self.dst_port, size, payload=chunk,
                priority=self.priority, on_complete=self._on_chunk_acked)
            self._next_offset += size
            self._outstanding += 1

    def _on_chunk_acked(self, send_state) -> None:
        self._outstanding -= 1
        self.bytes_acked += send_state.message.size
        if self.done:
            if self.completed_at is None:
                self.completed_at = self.endpoint.sim.now
                if self.on_complete is not None:
                    self.on_complete(self)
        else:
            self._fill()


class BlobReceiver:
    """Reassembles blobs from chunk messages arriving in any order.

    Attach as (or call from) the endpoint's ``on_message`` handler; fires
    ``on_blob(receiver, blob_id, total_bytes)`` when a blob is whole.
    """

    def __init__(self, on_blob: Optional[Callable] = None):
        self.on_blob = on_blob or (lambda receiver, blob_id, size: None)
        self._progress: Dict[int, Dict] = {}
        self.blobs_completed = 0
        self.bytes_received = 0

    def __call__(self, endpoint: MtpEndpoint,
                 message: DeliveredMessage) -> None:
        self.on_message(endpoint, message)

    def on_message(self, endpoint: MtpEndpoint,
                   message: DeliveredMessage) -> None:
        """Process one delivered chunk message."""
        chunk = message.payload
        if not isinstance(chunk, BlobChunk):
            return
        state = self._progress.setdefault(
            chunk.blob_id, {"received": set(), "bytes": 0,
                            "total": chunk.total_bytes})
        if chunk.offset in state["received"]:
            return
        state["received"].add(chunk.offset)
        state["bytes"] += message.size
        self.bytes_received += message.size
        if state["bytes"] >= state["total"]:
            del self._progress[chunk.blob_id]
            self.blobs_completed += 1
            self.on_blob(self, chunk.blob_id, state["total"])
