"""A tc-netem style queueing discipline model.

Supports the emulation features listed in the paper: fixed delay with
optional jitter and delay distribution, packet loss, duplication, corruption
and reordering (§3.1, §6.5).  The model is applied per packet: the qdisc
decides the arrival time(s) and state of each transmitted packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np


@dataclass(frozen=True)
class NetemRule:
    """Parameters of a netem qdisc, mirroring the tc-netem knobs."""

    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    distribution: Literal["none", "uniform", "normal", "pareto"] = "none"
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    corrupt_probability: float = 0.0
    reorder_probability: float = 0.0
    rate_kbps: float | None = None

    def __post_init__(self):
        if self.delay_ms < 0 or self.jitter_ms < 0:
            raise ValueError("delay and jitter must be non-negative")
        for name in (
            "loss_probability",
            "duplicate_probability",
            "corrupt_probability",
            "reorder_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.rate_kbps is not None and self.rate_kbps <= 0:
            raise ValueError("rate must be positive when given")

    def with_delay(self, delay_ms: float) -> "NetemRule":
        """Copy of the rule with a different base delay.

        Only the new delay is validated: every other field already passed
        ``__post_init__`` when this rule was built.
        """
        if delay_ms < 0:
            raise ValueError("delay and jitter must be non-negative")
        rule = object.__new__(NetemRule)
        rule.__dict__.update(self.__dict__, delay_ms=delay_ms)
        return rule

    @property
    def blocks_traffic(self) -> bool:
        """Whether the rule drops all traffic (used for unreachable pairs)."""
        return self.loss_probability >= 1.0


@dataclass(frozen=True)
class DeliveredPacket:
    """Outcome of pushing one packet through a qdisc."""

    arrival_time_s: float
    corrupted: bool = False
    duplicate: bool = False
    reordered: bool = False


class NetemQdisc:
    """Applies a :class:`NetemRule` to individual packets.

    The qdisc is stateless except for the serialization horizon used by the
    optional rate limit, which mirrors netem's internal packet pacing.
    """

    def __init__(self, rule: NetemRule, rng: np.random.Generator | None = None):
        self.rule = rule
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._busy_until_s = 0.0

    def update_rule(self, rule: NetemRule) -> None:
        """Replace the active rule (as the machine manager does every epoch)."""
        self.rule = rule

    def _sample_delay_ms(self) -> float:
        rule = self.rule
        if rule.jitter_ms <= 0.0 or rule.distribution == "none":
            return rule.delay_ms
        if rule.distribution == "uniform":
            offset = self._rng.uniform(-rule.jitter_ms, rule.jitter_ms)
        elif rule.distribution == "normal":
            offset = self._rng.normal(0.0, rule.jitter_ms)
        elif rule.distribution == "pareto":
            offset = (self._rng.pareto(2.0) - 1.0) * rule.jitter_ms
        else:
            raise ValueError(f"unknown delay distribution: {rule.distribution!r}")
        return max(0.0, rule.delay_ms + offset)

    def transmit(self, size_bytes: int, now_s: float) -> list[DeliveredPacket]:
        """Send one packet at ``now_s``; returns zero, one or two deliveries."""
        rule = self.rule
        if rule.loss_probability > 0.0 and self._rng.random() < rule.loss_probability:
            return []

        serialization_s = 0.0
        if rule.rate_kbps is not None:
            serialization_s = size_bytes * 8.0 / (rule.rate_kbps * 1000.0)
            start = max(now_s, self._busy_until_s)
            self._busy_until_s = start + serialization_s
            serialization_s = self._busy_until_s - now_s

        reordered = (
            rule.reorder_probability > 0.0
            and self._rng.random() < rule.reorder_probability
        )
        delay_s = 0.0 if reordered else self._sample_delay_ms() / 1000.0
        corrupted = (
            rule.corrupt_probability > 0.0
            and self._rng.random() < rule.corrupt_probability
        )
        deliveries = [
            DeliveredPacket(
                arrival_time_s=now_s + serialization_s + delay_s,
                corrupted=corrupted,
                reordered=reordered,
            )
        ]
        if (
            rule.duplicate_probability > 0.0
            and self._rng.random() < rule.duplicate_probability
        ):
            deliveries.append(
                DeliveredPacket(
                    arrival_time_s=now_s + serialization_s + self._sample_delay_ms() / 1000.0,
                    corrupted=False,
                    duplicate=True,
                )
            )
        return deliveries
