"""cgroup-style CPU quotas for microVMs.

Celestial isolates microVMs in dedicated cgroups to control the CPU cycles a
server process may use, making the emulation of severely constrained
satellite servers possible; quotas can be changed at runtime through the
API (§3.1).  The observable effect for applications is that compute-bound
work takes proportionally longer under a smaller quota, which is what
:meth:`CPUQuota.scaled_duration` models.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CPUQuota:
    """CPU allocation of one microVM in fractions of host cores."""

    vcpu_count: int
    quota_fraction: float = 1.0

    def __post_init__(self):
        if self.vcpu_count <= 0:
            raise ValueError("vcpu count must be positive")
        self._validate_fraction(self.quota_fraction)

    @staticmethod
    def _validate_fraction(fraction: float) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("quota fraction must be in (0, 1]")

    def set_quota(self, quota_fraction: float) -> None:
        """Change the quota at runtime (Celestial's fault-injection API)."""
        self._validate_fraction(quota_fraction)
        self.quota_fraction = quota_fraction

    def scaled_duration(self, nominal_seconds: float, parallelism: int = 1) -> float:
        """Wall-clock duration of a compute task under this quota."""
        return scaled_duration(nominal_seconds, self.vcpu_count, self.quota_fraction, parallelism)


def scaled_duration(
    nominal_seconds: float, vcpu_count: int, quota_fraction: float, parallelism: int = 1
) -> float:
    """Wall-clock duration of a compute task under a quota.

    ``nominal_seconds`` is the single-core duration on an unconstrained
    host core; ``parallelism`` is how many cores the task can use.
    """
    if nominal_seconds < 0:
        raise ValueError("duration must be non-negative")
    return nominal_seconds / (min(max(1, parallelism), vcpu_count) * quota_fraction)
