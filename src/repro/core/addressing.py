"""Virtual network address calculation for emulated machines.

Every microVM receives a deterministic IPv4 address derived from its identity
so that hosts can set up routing without coordination.  Applications normally
use the DNS names (``<id>.<shell>.celestial``) instead of computing addresses
themselves (§3.2); this module provides the underlying scheme.

Scheme (documented, Celestial-inspired): all machines live in ``10.0.0.0/8``.
Each machine owns a /30 block whose index is its flat node index in the
:class:`~repro.topology.graph.NodeIndex` — satellites shell by shell, then
the ground stations — so node ``n`` is ``10.0.0.0 + 4·n + 2``.  Within the
block, ``.1`` is the host-side gateway and ``.2`` is the machine address.
A name maps to its node with one grammar (``NodeIndex.resolve``): any case,
with or without ``.celestial`` and a trailing dot, ``<id>.<shell>`` for a
satellite, a station's name, slug, ``<slug>.gst`` or ``gst.<slug>``.
"""

from __future__ import annotations

import ipaddress

_BASE = int(ipaddress.IPv4Address("10.0.0.0"))
_MAX_MACHINES = 2**22  # 4 addresses per machine inside 10.0.0.0/8


def network_for(node: int) -> ipaddress.IPv4Network:
    """The /30 network block owned by the machine at a flat node index."""
    if not 0 <= node < _MAX_MACHINES:
        raise ValueError(f"node {node} is outside the 10.0.0.0/8 address space")
    return ipaddress.IPv4Network((_BASE + node * 4, 30))


def machine_ip(node: int) -> ipaddress.IPv4Address:
    """The machine-side address of the microVM at a flat node index."""
    return network_for(node)[2]
