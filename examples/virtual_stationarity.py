#!/usr/bin/env python3
"""Evaluating a state-management strategy on the testbed (paper §6.7).

Celestial deliberately contains no state-management, request-routing or
service-management strategy — it is the testbed on which such middleware is
evaluated.  This example shows that workflow for *virtual stationarity*
(Bhattacherjee et al.): a key-value service is anchored to Accra, its state
is proactively migrated to whichever Starlink satellite currently serves that
location, and clients measure read latency and hit rate.  The baseline keeps
the state on the first satellite forever ("static"), so reads increasingly
miss and pay a redirect penalty as the constellation moves.

Run with:  python examples/virtual_stationarity.py [--duration 300]
"""

import argparse

from repro import Celestial, ComputeParams, Configuration, GroundStationConfig, HostConfig, NetworkParams, ShellConfig
from repro.analysis import render_table
from repro.apps import VirtualStationarityExperiment
from repro.orbits import GroundStation, ShellGeometry


def build_configuration(duration_s: float) -> Configuration:
    """A single dense Starlink shell with two West-African ground stations."""
    shell = ShellConfig(
        name="starlink-550",
        geometry=ShellGeometry(72, 22, 550.0, 53.0),
        network=NetworkParams(min_elevation_deg=25.0),
        compute=ComputeParams(vcpu_count=2, memory_mib=512),
    )
    return Configuration(
        shells=(shell,),
        ground_stations=(
            GroundStationConfig(station=GroundStation("accra", 5.6037, -0.1870),
                                compute=ComputeParams(vcpu_count=4, memory_mib=4096)),
            GroundStationConfig(station=GroundStation("abuja", 9.0765, 7.3986),
                                compute=ComputeParams(vcpu_count=4, memory_mib=4096)),
        ),
        hosts=HostConfig(count=2),
        update_interval_s=5.0,
        duration_s=duration_s,
    )


def run_policy(policy: str, duration_s: float):
    """Run one migration policy and return its results."""
    with Celestial(build_configuration(duration_s)) as testbed:
        experiment = VirtualStationarityExperiment(
            testbed,
            anchor_station="accra",
            client_stations=["accra", "abuja"],
            policy=policy,
            state_size_bytes=256 * 1024,
            read_interval_s=0.5,
        )
        return experiment.run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=300.0,
                        help="simulated duration in seconds")
    args = parser.parse_args()

    rows = []
    results = {}
    for policy in ("proactive", "static"):
        print(f"running {policy} state-management policy "
              f"({args.duration:.0f} s simulated)...")
        results[policy] = run_policy(policy, args.duration)
        result = results[policy]
        rows.append([
            policy,
            len(result.read_latency),
            result.read_latency.mean(),
            result.read_latency.percentile(95),
            100.0 * result.hit_rate,
            result.migration_count,
            result.migration_downtime_s * 1000.0,
        ])

    print()
    print(render_table(
        ["policy", "reads", "mean read latency [ms]", "p95 [ms]",
         "hit rate [%]", "migrations", "migration downtime [ms]"],
        rows,
        title="Virtual stationarity vs static placement",
    ))

    proactive, static = results["proactive"], results["static"]
    print(f"\nProactive migration keeps {100 * proactive.hit_rate:.1f}% of reads on the "
          f"local satellite vs {100 * static.hit_rate:.1f}% without migration; "
          f"mean read latency improves from {static.read_latency.mean():.1f} ms to "
          f"{proactive.read_latency.mean():.1f} ms at the cost of "
          f"{proactive.migration_count} state transfers.")
    print("Satellites that served the anchored state:",
          ", ".join(name for _, name in proactive.anchor_history))


if __name__ == "__main__":
    main()
