"""Firecracker-style microVM substrate.

Celestial emulates every satellite and ground-station server with a
Firecracker microVM: sub-second boot, suspend/resume, cgroup-based CPU
isolation and memory reserved through a virtio device regardless of
suspension state (§3.2, §4.2).  This package models the lifecycle and
resource behaviour of those microVMs, one :class:`MachineTable` per host, so
that host resource traces (Figs. 7-8) and bounding-box suspension effects can
be reproduced without a hypervisor.
"""

from repro.microvm.cgroups import CPUQuota
from repro.microvm.machine import (
    MachineBatch,
    MachineState,
    MachineTable,
    MachineView,
    MicroVMError,
)

__all__ = [
    "CPUQuota",
    "MachineBatch",
    "MachineState",
    "MachineTable",
    "MachineView",
    "MicroVMError",
]
