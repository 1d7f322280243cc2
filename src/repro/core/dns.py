"""Local DNS for emulated machines.

Each Celestial host provides a DNS server that resolves microVM network
addresses with a custom record scheme, e.g. the A record for
``878.0.celestial`` is the address of satellite 878 in the first shell
(§3.2).  Applications can thus address machines by name without knowing the
underlying IP address-space calculation.

The DNS serves the ``.celestial`` zone and reads a name in it as every
surface does (:meth:`~repro.topology.graph.NodeIndex.resolve`): any case,
with or without a trailing dot, ``<id>.<shell>.celestial`` for a satellite,
``<name>[.gst].celestial`` or ``gst.<name>.celestial`` for a station.
"""

from __future__ import annotations

import ipaddress

from repro.core.addressing import machine_ip
from repro.topology import NodeIndex


class DNSError(KeyError):
    """Raised when a name or address cannot be resolved."""


class CelestialDNS:
    """Resolves Celestial machine names to virtual network addresses."""

    def __init__(self, node_index: NodeIndex):
        self.node_index = node_index

    def resolve(self, name: str) -> ipaddress.IPv4Address:
        """Resolve a machine name (A record lookup)."""
        if not name.lower().removesuffix(".").endswith(".celestial"):
            raise DNSError(f"not a celestial name: {name!r}")
        try:
            return machine_ip(self.node_index.resolve(name))
        except LookupError as error:
            raise DNSError(*error.args) from error

    def a_record(self, name: str) -> dict[str, str]:
        """DNS A record as a dictionary (mirrors the record a resolver returns)."""
        return {"name": name, "type": "A", "address": str(self.resolve(name))}
