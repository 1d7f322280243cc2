"""The microVM machine model: resources, lifecycle and resource footprint.

A Firecracker microVM boots in well under a second, can be suspended and
resumed, and keeps its virtio memory device allocated on the host even while
suspended (§3.2, §4.2 "Efficiency").  Celestial additionally reboots or
terminates machines through its fault-injection API to model radiation-induced
failures (§3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.microvm.cgroups import CPUQuota
from repro.microvm.kernel import KernelImage
from repro.microvm.rootfs import RootFilesystemImage


class MicroVMError(RuntimeError):
    """Raised for illegal microVM state transitions."""


class MachineState(enum.Enum):
    """Lifecycle states of an emulated microVM."""

    CREATED = "created"
    BOOTING = "booting"
    RUNNING = "running"
    SUSPENDED = "suspended"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass(frozen=True)
class MachineResources:
    """Resources allocated to a microVM."""

    vcpu_count: int
    memory_mib: int
    disk_mib: int = 512

    def __post_init__(self):
        if self.vcpu_count <= 0:
            raise ValueError("vcpu count must be positive")
        if self.memory_mib <= 0:
            raise ValueError("memory must be positive")
        if self.disk_mib <= 0:
            raise ValueError("disk must be positive")


@dataclass
class _Transition:
    time_s: float
    state: MachineState


#: Firecracker boot time: ~125 ms plus configuration overhead (sub-second).
DEFAULT_BOOT_TIME_S = 0.35
BOOT_TIME_JITTER_S = 0.15


class MicroVM:
    """One emulated machine (satellite server or ground-station server)."""

    def __init__(
        self,
        name: str,
        resources: MachineResources,
        kernel: Optional[KernelImage] = None,
        rootfs: Optional[RootFilesystemImage] = None,
        rng: Optional[np.random.Generator] = None,
        active_cpu_fraction: float = 0.05,
    ):
        self.name = name
        self.resources = resources
        self.kernel = kernel if kernel is not None else KernelImage()
        self.rootfs = rootfs if rootfs is not None else RootFilesystemImage()
        self.cpu_quota = CPUQuota(vcpu_count=resources.vcpu_count)
        self.state = MachineState.CREATED
        self.active_cpu_fraction = active_cpu_fraction
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.transitions: list[_Transition] = [_Transition(0.0, MachineState.CREATED)]
        #: Latest time in the log (the log is not time-sorted: a boot logs its
        #: finish ahead of time, and a stop may land before it).
        self._latest_transition_s = 0.0
        self.boot_count = 0
        self._boot_finished_at_s: Optional[float] = None
        #: Called after every lifecycle transition; the host the machine is
        #: placed on sets it to keep its usage accounting current.
        self.on_state_change: Optional[Callable[[], None]] = None

    # -- state machine ----------------------------------------------------

    def _set_state(self, state: MachineState, now_s: float) -> None:
        self.state = state
        self.transitions.append(_Transition(now_s, state))
        if now_s > self._latest_transition_s:
            self._latest_transition_s = now_s
        if self.on_state_change is not None:
            self.on_state_change()

    def sample_boot_time_s(self) -> float:
        """Sub-second boot duration for this machine."""
        return DEFAULT_BOOT_TIME_S + float(self._rng.random()) * BOOT_TIME_JITTER_S

    def boot(self, now_s: float) -> float:
        """Start booting; returns the time at which the machine is running."""
        if self.state not in (MachineState.CREATED, MachineState.STOPPED, MachineState.FAILED):
            raise MicroVMError(f"cannot boot machine in state {self.state.value}")
        self._set_state(MachineState.BOOTING, now_s)
        boot_time = self.sample_boot_time_s()
        self._boot_finished_at_s = now_s + boot_time
        self._set_state(MachineState.RUNNING, self._boot_finished_at_s)
        self.boot_count += 1
        return self._boot_finished_at_s

    def suspend(self, now_s: float) -> None:
        """Suspend the machine (bounding-box exit); memory stays allocated."""
        if self.state is not MachineState.RUNNING:
            raise MicroVMError(f"cannot suspend machine in state {self.state.value}")
        self._set_state(MachineState.SUSPENDED, now_s)

    def resume(self, now_s: float) -> None:
        """Resume a suspended machine (bounding-box re-entry)."""
        if self.state is not MachineState.SUSPENDED:
            raise MicroVMError(f"cannot resume machine in state {self.state.value}")
        self._set_state(MachineState.RUNNING, now_s)

    def stop(self, now_s: float) -> None:
        """Shut the machine down (fault injection: full shutdown)."""
        if self.state in (MachineState.STOPPED, MachineState.CREATED):
            raise MicroVMError(f"cannot stop machine in state {self.state.value}")
        self._set_state(MachineState.STOPPED, now_s)

    def fail(self, now_s: float) -> None:
        """Mark the machine as failed (e.g. radiation-induced single event upset)."""
        self._set_state(MachineState.FAILED, now_s)

    def reboot(self, now_s: float) -> float:
        """Stop and boot again; returns the time the machine is running again."""
        if self.state not in (MachineState.STOPPED, MachineState.FAILED):
            self._set_state(MachineState.STOPPED, now_s)
        return self.boot(now_s)

    # -- properties & resource footprint -----------------------------------

    @property
    def is_running(self) -> bool:
        """Whether the machine is currently running (not suspended/stopped)."""
        return self.state is MachineState.RUNNING

    @property
    def is_booted(self) -> bool:
        """Whether the machine has been booted at least once and not stopped."""
        return self.state in (MachineState.RUNNING, MachineState.SUSPENDED)

    def memory_footprint_mib(self) -> float:
        """Host memory blocked by this machine.

        The virtio memory device keeps the full allocation reserved as soon
        as the machine has booted, even while suspended (§4.2).
        """
        if self.state in (MachineState.BOOTING, MachineState.RUNNING, MachineState.SUSPENDED):
            return float(self.resources.memory_mib)
        return 0.0

    def cpu_cores_in_use(self, busy_fraction: Optional[float] = None) -> float:
        """Host cores currently consumed by this machine.

        ``busy_fraction`` expresses how busy the workload keeps its allocated
        vCPUs (1.0 = all allocated vCPUs fully busy); when omitted the
        machine's idle/active baseline is used.
        """
        if self.state is MachineState.BOOTING:
            return float(self.resources.vcpu_count)
        if self.state is not MachineState.RUNNING:
            return 0.0
        fraction = self.active_cpu_fraction if busy_fraction is None else busy_fraction
        fraction = min(max(fraction, 0.0), 1.0)
        return self.resources.vcpu_count * fraction * self.cpu_quota.quota_fraction

    def state_at(self, time_s: float) -> MachineState:
        """Machine state at a time (from the transition log).

        At or after the latest logged transition the answer is the current
        state — every entry of the log passes the walk below — so the usual
        "is it running now" question reads no log at all.
        """
        if time_s >= self._latest_transition_s:
            return self.state
        state = MachineState.CREATED
        for transition in self.transitions:
            if transition.time_s <= time_s:
                state = transition.state
            else:
                break
        return state
