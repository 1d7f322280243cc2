"""Messages exchanged between emulated machines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.constellation import MachineId


@dataclass(frozen=True)
class Message:
    """One application-level message (datagram) on the virtual network."""

    source: MachineId
    destination: MachineId
    size_bytes: int
    payload: Any = None
    sent_at_s: float = 0.0

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("message size must be positive")

    def latency_ms(self, received_at_s: float) -> float:
        """End-to-end latency [ms] given the receive timestamp."""
        return (received_at_s - self.sent_at_s) * 1000.0
