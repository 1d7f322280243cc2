"""Link-churn chains for the path-engine suites, sized against the routing rule.

:class:`~repro.topology.paths.PathEngine` routes an epoch by the share of
the previous edges whose tree support can be gone (delay raised or link
removed): below ``WHOLESALE_SHARE`` the carried trees are repaired, at or
above it every table is solved afresh.  The property suites want the
*repair* machinery under fire every epoch, so their chains must stay
below that share by construction — on a 141-edge Iridium graph that is
two disturbed edges per epoch.  :class:`FlickerChain` gets its churn from
what the rule does not count instead: failures **accumulate** and heal
over many epochs (links that return are additions), and any number of
delays may drop.  States with several simultaneous outages, unreachable
regions and reconnections through the same parent still occur — they are
reached a few edges at a time.
"""

import math

import numpy as np

from repro.topology import NetworkGraph
from repro.topology.paths import WHOLESALE_SHARE

_UPLINK_CODE = 1


class FlickerChain:
    """Stateful ISL flicker + uplink handover + delay jitter below the share.

    ``graph`` is the chain's current epoch; :meth:`step` advances it by
    one repair-regime epoch, :meth:`jitter` by a delay-only one (no link
    fails or heals), :meth:`move` by one wholesale epoch.
    ``max_disturbed`` caps the per-epoch failures + raises on graphs
    where the share alone would allow hundreds.
    """

    def __init__(self, full, rng, max_failed=8, max_disturbed=24):
        self.full = full
        self.rng = rng
        self.max_failed = max_failed
        self.max_disturbed = max_disturbed
        self.failed = np.zeros(full.total_links(), dtype=bool)
        self.delays = full.delays_ms.copy()
        self.graph = full
        uplinks = full.link_type_codes == _UPLINK_CODE
        #: Handover churn draws from the uplinks, flicker from the rest.
        self._uplinks = np.flatnonzero(uplinks)
        self._others = np.flatnonzero(~uplinks)

    def budget(self) -> int:
        """Most edges one epoch may fail or raise and stay a repair epoch."""
        below_share = math.ceil(WHOLESALE_SHARE * self.graph.total_links()) - 1
        return min(below_share, self.max_disturbed)

    def _pick(self, mask, count):
        candidates = np.flatnonzero(mask)
        return self.rng.choice(candidates, size=min(count, candidates.size), replace=False)

    def step(self) -> NetworkGraph:
        rng = self.rng
        disturbed = int(rng.integers(0, self.budget() + 1))
        room = self.max_failed - int(self.failed.sum())
        failures = int(rng.integers(0, min(disturbed, room) + 1))
        alive = ~self.failed
        # Heal first (free: a returning link is an addition) ...
        self.failed &= rng.random(self.failed.size) < 0.75
        # ... then fail links that were up in the previous epoch.  Last,
        # move surviving delays.
        for _ in range(failures):
            handover = self._uplinks.size and rng.random() < 0.3
            pool = self._uplinks if handover else self._others
            candidates = pool[alive[pool] & ~self.failed[pool]]
            if candidates.size:
                self.failed[rng.choice(candidates)] = True
        self._move_delays(alive & ~self.failed, disturbed - failures, 20)
        return self._publish()

    def jitter(self) -> NetworkGraph:
        """A delay-only repair epoch on the previous epoch's edge set."""
        raises = int(self.rng.integers(1, self.budget() + 1))
        self._move_delays(~self.failed, raises, 4)
        return self._publish(structure_from=self.graph)

    def _move_delays(self, surviving, raises, max_drops):
        """Raise ``raises`` surviving delays (counted) and drop 1 to ``max_drops - 1`` (free)."""
        rng = self.rng
        raised = self._pick(surviving, raises)
        self.delays[raised] += rng.uniform(0.1, 3.0, raised.size)
        surviving[raised] = False
        lowered = self._pick(surviving, int(rng.integers(1, max_drops)))
        self.delays[lowered] *= rng.uniform(0.5, 1.0, lowered.size)

    def move(self) -> NetworkGraph:
        """A wholesale epoch: every delay drifts, as when the constellation moves."""
        self.delays *= self.rng.uniform(0.9, 1.1, self.delays.size)
        return self._publish()

    def _publish(self, structure_from=None) -> NetworkGraph:
        full = self.full
        up = np.flatnonzero(~self.failed)
        self.graph = NetworkGraph.from_edge_arrays(
            full.index,
            full.node_a[up], full.node_b[up],
            full.distances_km[up], self.delays[up],
            full.bandwidths_kbps[up], full.link_type_codes[up],
            structure_from=structure_from,
        )
        return self.graph
