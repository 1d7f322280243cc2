"""Local DNS for emulated machines.

Each Celestial host provides a DNS server that resolves microVM network
addresses with a custom record scheme, e.g. the A record for
``878.0.celestial`` is the address of satellite 878 in the first shell
(§3.2).  Ground stations resolve as ``<name>.gst.celestial``.  Applications
can thus address machines by name without knowing the underlying IP
address-space calculation.
"""

from __future__ import annotations

import ipaddress
from typing import Sequence

from repro.core.addressing import machine_ip


class DNSError(KeyError):
    """Raised when a name or address cannot be resolved."""


def dns_slug(name: str) -> str:
    """A ground-station name as a DNS label (lower case, spaces as dashes, no commas)."""
    return name.lower().replace(" ", "-").replace(",", "")


class CelestialDNS:
    """Resolves Celestial machine names to virtual network addresses."""

    def __init__(self, shell_sizes: Sequence[int], ground_station_names: Sequence[str]):
        self.shell_sizes = list(shell_sizes)
        self.ground_station_names = list(ground_station_names)
        self._gst_index = {
            dns_slug(name): position for position, name in enumerate(self.ground_station_names)
        }

    # -- resolution ---------------------------------------------------------

    def resolve(self, name: str) -> ipaddress.IPv4Address:
        """Resolve a machine name (A record lookup)."""
        labels = name.lower().rstrip(".").split(".")
        if not labels or labels[-1] != "celestial":
            raise DNSError(f"not a celestial name: {name!r}")
        body = labels[:-1]
        if len(body) == 2 and body[0].isdigit() and body[1].isdigit():
            identifier, shell = int(body[0]), int(body[1])
            if shell >= len(self.shell_sizes) or identifier >= self.shell_sizes[shell]:
                raise DNSError(f"no such satellite: {name!r}")
            return machine_ip(self.shell_sizes, shell, identifier)
        # Ground stations: both "<name>.gst.celestial" and "gst.<name>.celestial".
        if len(body) == 2 and "gst" in body:
            gst_name = body[1] if body[0] == "gst" else body[0]
            if gst_name not in self._gst_index:
                raise DNSError(f"no such ground station: {name!r}")
            return machine_ip(
                self.shell_sizes, len(self.shell_sizes), self._gst_index[gst_name]
            )
        raise DNSError(f"cannot resolve {name!r}")

    def a_record(self, name: str) -> dict[str, str]:
        """DNS A record as a dictionary (mirrors the record a resolver returns)."""
        return {"name": name, "type": "A", "address": str(self.resolve(name))}
