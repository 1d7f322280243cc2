"""Messages exchanged between emulated machines."""

from __future__ import annotations

from typing import Any

from repro.core.constellation import MachineId


class Message:
    """One application-level message (datagram) on the virtual network."""

    __slots__ = ("source", "destination", "size_bytes", "payload", "sent_at_s")

    def __init__(
        self,
        source: MachineId,
        destination: MachineId,
        size_bytes: int,
        payload: Any = None,
        sent_at_s: float = 0.0,
    ):
        if size_bytes <= 0:
            raise ValueError("message size must be positive")
        self.source = source
        self.destination = destination
        self.size_bytes = size_bytes
        self.payload = payload
        self.sent_at_s = sent_at_s

    def latency_ms(self, received_at_s: float) -> float:
        """End-to-end latency [ms] given the receive timestamp."""
        return (received_at_s - self.sent_at_s) * 1000.0
