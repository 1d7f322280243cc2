#!/usr/bin/env python3
"""Quickstart: build a small LEO edge testbed and measure a few latencies.

This example builds the Iridium constellation with two ground stations,
runs the testbed for one simulated minute and shows:

* constellation/network state queries (positions, uplinks, paths),
* the DNS and HTTP info API that emulated machines would use,
* sending application messages over the emulated network.

Run with:  python examples/quickstart.py
"""

import json
from urllib.request import urlopen

from repro import Celestial, ComputeParams, Configuration, GroundStationConfig, HostConfig, NetworkParams, ShellConfig
from repro.analysis import render_table
from repro.core import HTTPInfoServer
from repro.orbits import GroundStation, ShellGeometry


def build_configuration() -> Configuration:
    """A small configuration: the Iridium shell plus two ground stations."""
    iridium = ShellConfig(
        name="iridium",
        geometry=ShellGeometry(
            planes=6,
            satellites_per_plane=11,
            altitude_km=780.0,
            inclination_deg=90.0,
            arc_of_ascending_nodes_deg=180.0,
        ),
        network=NetworkParams(
            isl_bandwidth_kbps=100_000.0,
            uplink_bandwidth_kbps=100_000.0,
            min_elevation_deg=8.2,
        ),
        compute=ComputeParams(vcpu_count=1, memory_mib=1024),
    )
    return Configuration(
        shells=(iridium,),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3649, -157.9497)),
            GroundStationConfig(station=GroundStation("guam", 13.4443, 144.7937)),
        ),
        hosts=HostConfig(count=3, cpu_cores=32, memory_mib=32 * 1024),
        update_interval_s=5.0,
        duration_s=60.0,
    )


def main() -> None:
    config = build_configuration()
    testbed = Celestial(config)
    testbed.start()

    hawaii = testbed.ground_station("hawaii")
    guam = testbed.ground_station("guam")

    # Application processes: Hawaii pings Guam once per second, Guam records
    # the end-to-end latency of every received message.
    sender = testbed.endpoint(hawaii)
    receiver = testbed.endpoint(guam)
    observed = []

    def ping():
        while True:
            sender.send(guam, 256, payload={"sent": testbed.sim.now})
            yield testbed.sim.timeout(1.0)

    def pong():
        while True:
            message = yield receiver.receive()
            observed.append((testbed.sim.now, message.latency_ms(testbed.sim.now)))

    testbed.sim.process(ping())
    testbed.sim.process(pong())
    testbed.run()  # runs for config.duration_s simulated seconds

    print("=== Constellation state ===")
    state = testbed.state
    print(f"time: {state.time_s:.0f} s, active satellites: {state.active_count()}")
    print(f"links in the network graph: {state.graph.total_links()}")
    uplinks = state.uplinks_of("hawaii")[:3]
    rows = [[f"{u.satellite}.{u.shell}", f"{u.distance_km:.0f}", f"{u.delay_ms:.2f}"] for u in uplinks]
    print(render_table(["satellite", "distance [km]", "delay [ms]"], rows,
                       title="Nearest uplinks of Hawaii"))

    print("\n=== Network paths ===")
    path = state.path(hawaii, guam)
    print(f"hawaii -> guam: {path.delay_ms:.2f} ms over {path.hop_count} hops "
          f"(RTT {path.rtt_ms:.2f} ms)")

    print("\n=== DNS and HTTP info API ===")
    print("A record for 13.0.celestial:", testbed.dns.a_record("13.0.celestial"))
    with HTTPInfoServer(testbed.info_api) as server:
        host, port = server.address
        print(f"info API listening on http://{host}:{port}/info "
              f"(e.g. /sat/0/13, /gst/hawaii, /path/hawaii/guam)")
        print("GET /info ->", testbed.info_api.get("/info"))
        with urlopen(f"http://{host}:{port}/path/hawaii/guam", timeout=5) as response:
            route = json.loads(response.read())
        print(f"GET /path/hawaii/guam over HTTP -> reachable: {route['reachable']}, "
              f"{len(route['hops']) - 1} hops, RTT {route['rtt_ms']:.2f} ms")

    print("\n=== Application measurements ===")
    latencies = [latency for _, latency in observed]
    print(f"messages received: {len(latencies)}, "
          f"mean latency: {sum(latencies) / len(latencies):.2f} ms, "
          f"min: {min(latencies):.2f} ms, max: {max(latencies):.2f} ms")
    print("\nHost resource usage (peak):")
    for index, trace in testbed.resource_traces().items():
        print(f"  host {index}: cpu {trace.peak_cpu_percent():.1f}%, "
              f"memory {trace.peak_memory_percent():.1f}%")


if __name__ == "__main__":
    main()
