"""A degraded-operator scenario: one operator's shell progressively loses ISLs.

Built on top of the mixed-operator configuration
(:mod:`repro.scenarios.operators`): three operators share the sky, and one of
them — by default the OneWeb shell — suffers a progressive inter-satellite
laser failure cascade.  Every degradation step severs another batch of the
victim shell's intra-shell ISLs through the **fault-injection API**
(:meth:`~repro.core.fault_injection.FaultInjector.inject_packet_loss` with
probability 1.0 on both directions), so the outage is applied exactly the
way a testbed user would apply it at runtime: no configuration change, no
topology rebuild — the routing/uplink machinery keeps seeing the links, the
data plane stops delivering over them.

This models the operationally interesting regime between "operator healthy"
and "operator gone": traffic that used to ride the victim's ISL mesh has to
fall back to ground-hops or a competitor's shell, and the healthy operators'
topology is entirely unaffected (asserted in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import Configuration
from repro.core.constellation import machine_at
from repro.experiments.registry import scenario
from repro.scenarios.operators import mixed_operator_configuration

#: Shell name degraded by default (the OneWeb Walker-star shell).
DEFAULT_VICTIM_SHELL = "oneweb"


@scenario("degraded-operator")
def degraded_mixed_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    kuiper_shell_limit: Optional[int] = 1,
    seed: int = 0,
) -> Configuration:
    """The mixed-operator sky whose OneWeb shell suffers the ISL cascade.

    Scenario factories return a plain :class:`Configuration`, so the victim
    index is not part of the return value — an experiment spec names the
    victim shell in its fault program (``target = "oneweb"``) and the runner
    resolves the index with :func:`victim_shell_index` (by name, so
    reordering the mixed shells cannot silently change the victim).
    """
    return mixed_operator_configuration(
        duration_s=duration_s,
        update_interval_s=update_interval_s,
        kuiper_shell_limit=kuiper_shell_limit,
        seed=seed,
    )


def victim_shell_index(
    config: Configuration, shell_name: str = DEFAULT_VICTIM_SHELL
) -> int:
    """Index of the victim operator's shell in a configuration."""
    for index, shell in enumerate(config.shells):
        if shell.name == shell_name:
            return index
    raise ValueError(f"configuration has no shell named {shell_name!r}")


@dataclass
class DegradationStep:
    """One executed degradation step (for analysis/plots)."""

    time_s: float
    total_severed: int
    remaining_intact: int


@dataclass
class OperatorDegradation:
    """Progressive ISL failure cascade against one operator's shell.

    Every ``interval_s`` of simulated time a batch of
    ``isls_per_step`` not-yet-severed intra-shell ISLs of shell
    ``shell_index`` is picked (uniformly, from the scenario's seeded RNG)
    and killed through the testbed's fault injector, until
    ``target_fraction`` of the ISLs observed at the first step is gone.
    The set of severed satellite pairs is tracked by endpoint pair — ISL
    edge ids change across epochs, pairs are stable.

    Usage::

        config = build("degraded-operator")
        victim = victim_shell_index(config)
        testbed = Celestial(config)
        degradation = OperatorDegradation(testbed, victim)
        testbed.start()
        testbed.sim.process(degradation.process())
        testbed.run()
    """

    testbed: "object"  # repro.core.testbed.Celestial (kept untyped: no cycle)
    shell_index: int
    isls_per_step: int = 24
    interval_s: float = 60.0
    target_fraction: float = 0.5
    rng: Optional[np.random.Generator] = None
    severed: set[tuple[int, int]] = field(default_factory=set, init=False)
    steps: list[DegradationStep] = field(default_factory=list, init=False)

    def __post_init__(self):
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValueError("target fraction must be in (0, 1]")
        if self.isls_per_step <= 0:
            raise ValueError("ISLs per step must be positive")
        if self.rng is None:
            self.rng = self.testbed.streams.stream(
                f"degraded-operator-{self.shell_index}"
            )

    # -- topology inspection ------------------------------------------------

    def _shell_isl_pairs(self) -> list[tuple[int, int]]:
        """Intact intra-shell ISL endpoint pairs of the victim shell."""
        state = self.testbed.state
        graph = state.graph
        span = state.node_index.satellites_of_shell(self.shell_index)
        node_a, node_b = graph.node_a, graph.node_b
        mask = (
            (graph.link_type_codes == 0)  # LinkType.ISL
            & (node_a >= span.start) & (node_a < span.stop)
            & (node_b >= span.start) & (node_b < span.stop)
        )
        pairs = zip(node_a[mask].tolist(), node_b[mask].tolist())
        return [pair for pair in pairs if pair not in self.severed]

    # -- degradation --------------------------------------------------------

    def sever(self, count: int, now_s: float) -> int:
        """Sever up to ``count`` random intact ISLs; returns how many."""
        intact = self._shell_isl_pairs()
        if not intact:
            return 0
        picked = self.rng.choice(len(intact), size=min(count, len(intact)),
                                 replace=False)
        injector, index = self.testbed.fault_injector, self.testbed.state.node_index
        for position in np.sort(picked).tolist():
            node_a, node_b = intact[position]
            machine_a, machine_b = machine_at(index, node_a), machine_at(index, node_b)
            injector.inject_packet_loss(machine_a, machine_b, 1.0, now_s)
            injector.inject_packet_loss(machine_b, machine_a, 1.0, now_s)
            self.severed.add((node_a, node_b))
        return len(picked)

    @property
    def done(self) -> bool:
        """Whether the target fraction has been reached."""
        if not self.steps:
            return False
        first = self.steps[0]
        total_at_start = first.total_severed + first.remaining_intact
        return len(self.severed) >= self.target_fraction * total_at_start

    def process(self):
        """Simulation process driving the cascade (register with ``sim.process``)."""
        while True:
            yield self.testbed.sim.timeout(self.interval_s)
            if self.done:
                return
            now = self.testbed.sim.now
            severed_now = self.sever(self.isls_per_step, now)
            self.steps.append(
                DegradationStep(
                    time_s=now,
                    total_severed=len(self.severed),
                    remaining_intact=len(self._shell_isl_pairs()),
                )
            )
            if severed_now == 0:
                return
