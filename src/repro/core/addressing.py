"""Virtual network address calculation for emulated machines.

Every microVM receives a deterministic IPv4 address derived from its identity
so that hosts can set up routing without coordination.  Applications normally
use the DNS names (``<id>.<shell>.celestial``) instead of computing addresses
themselves (§3.2); this module provides the underlying scheme.

Scheme (documented, Celestial-inspired): all machines live in ``10.0.0.0/8``.
Each machine owns a /30 block whose index is its global machine offset:
satellites are numbered shell by shell, ground stations come after all
satellites.  Within the block, ``.1`` is the host-side gateway and ``.2`` is
the machine address.
"""

from __future__ import annotations

import ipaddress
from typing import Sequence

_BASE = int(ipaddress.IPv4Address("10.0.0.0"))
_MAX_MACHINES = 2**22  # 4 addresses per machine inside 10.0.0.0/8


def _offset(shell_sizes: Sequence[int], shell: int, identifier: int) -> int:
    if shell < 0 or shell > len(shell_sizes):
        raise IndexError(f"shell {shell} out of range")
    if shell < len(shell_sizes) and not 0 <= identifier < shell_sizes[shell]:
        raise IndexError(f"identifier {identifier} out of range for shell {shell}")
    offset = sum(shell_sizes[:shell]) + identifier
    if offset >= _MAX_MACHINES:
        raise ValueError("machine offset exceeds the 10.0.0.0/8 address space")
    return offset


def network_for(shell_sizes: Sequence[int], shell: int, identifier: int) -> ipaddress.IPv4Network:
    """The /30 network block owned by a machine."""
    offset = _offset(shell_sizes, shell, identifier)
    return ipaddress.IPv4Network((_BASE + offset * 4, 30))


def machine_ip(shell_sizes: Sequence[int], shell: int, identifier: int) -> ipaddress.IPv4Address:
    """The machine-side address of a microVM."""
    return network_for(shell_sizes, shell, identifier)[2]
