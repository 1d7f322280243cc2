"""Socket-like endpoints used by applications running on emulated machines."""

from __future__ import annotations

from typing import Any

from repro.core.constellation import MachineId
from repro.net.packet import Message
from repro.net.network import VirtualNetwork
from repro.sim import Event, Simulation


class NetworkEndpoint:
    """The network interface of one emulated machine.

    Provides a minimal UDP-datagram-style API for application processes
    running inside the discrete-event simulation: :meth:`send` transmits a
    message to another machine and :meth:`receive` returns an event that
    triggers with the next incoming message.
    """

    def __init__(self, sim: Simulation, network: VirtualNetwork, machine: MachineId):
        self.sim = sim
        self.network = network
        self.machine = machine
        self._inbox = network.register_endpoint(machine)

    def send(self, destination: MachineId, size_bytes: int, payload: Any = None) -> Message:
        """Send a datagram; returns the message that was put on the wire."""
        message = Message(
            source=self.machine,
            destination=destination,
            size_bytes=size_bytes,
            payload=payload,
            sent_at_s=self.sim.now,
        )
        self.network.send(message)
        return message

    def receive(self) -> Event:
        """Event that triggers with the next received :class:`Message`."""
        return self._inbox.get()
