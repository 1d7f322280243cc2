#!/usr/bin/env python3
"""Fault injection on the LEO edge: radiation upsets, CPU degradation, packet loss.

Satellite servers are exposed to single event upsets caused by cosmic rays
(§2.3, §3.1).  This example runs a small Iridium testbed in which a ground
station continuously pings a satellite server while faults are injected:

1. the satellite is terminated and rebooted (a full radiation shutdown),
2. its CPU quota is degraded to a quarter (temporary performance degradation),
3. packet loss is injected on the uplink,
4. a stochastic radiation model reboots random satellites in the background.

Run with:  python examples/fault_injection.py
"""

from repro import Celestial, ComputeParams, Configuration, GroundStationConfig, HostConfig, NetworkParams, ShellConfig
from repro.core import RadiationModel
from repro.orbits import GroundStation, ShellGeometry


def build_testbed() -> Celestial:
    """A one-shell testbed with a single ground station."""
    config = Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3649, -157.9497)),
        ),
        hosts=HostConfig(count=1, cpu_cores=32, memory_mib=32 * 1024),
        update_interval_s=5.0,
        duration_s=120.0,
    )
    return Celestial(config)


def main() -> None:
    with build_testbed() as testbed:
        testbed.start()
        testbed.run(until=1.0)

        hawaii = testbed.ground_station("hawaii")
        target = testbed.state.uplinks_of("hawaii")[0]
        satellite = testbed.satellite(target.shell, target.satellite)
        print(f"ground station uplink satellite: {satellite.name} "
              f"({target.distance_km:.0f} km, {target.delay_ms:.2f} ms)")

        sender = testbed.endpoint(hawaii)
        receiver = testbed.endpoint(satellite)
        delivered = []

        def ping():
            while True:
                sender.send(satellite, 128, payload={"sent": testbed.sim.now})
                yield testbed.sim.timeout(0.5)

        def receive():
            while True:
                message = yield receiver.receive()
                delivered.append(testbed.sim.now)

        testbed.sim.process(ping())
        testbed.sim.process(receive())
        injector = testbed.fault_injector

        def fault_script():
            yield testbed.sim.timeout(10.0)
            print(f"[t={testbed.sim.now:5.1f}s] terminating {satellite.name}")
            injector.terminate(satellite, testbed.sim.now)
            yield testbed.sim.timeout(10.0)
            back = injector.reboot(satellite, testbed.sim.now)
            print(f"[t={testbed.sim.now:5.1f}s] rebooting {satellite.name}, up again at t={back:.1f}s")
            yield testbed.sim.timeout(10.0)
            print(f"[t={testbed.sim.now:5.1f}s] degrading CPU quota to 25%")
            injector.degrade_cpu(satellite, 0.25, testbed.sim.now)
            slowed = testbed.processing_delay_s(satellite, 0.002)
            print(f"          a 2 ms inference now takes {slowed * 1000:.1f} ms")
            injector.restore_cpu(satellite, testbed.sim.now)
            yield testbed.sim.timeout(10.0)
            print(f"[t={testbed.sim.now:5.1f}s] injecting 50% packet loss on the uplink")
            injector.inject_packet_loss(hawaii, satellite, 0.5, testbed.sim.now)
            yield testbed.sim.timeout(20.0)
            injector.clear_packet_loss(hawaii, satellite, testbed.sim.now)
            print(f"[t={testbed.sim.now:5.1f}s] packet loss cleared")

        testbed.sim.process(fault_script())

        # A background radiation model reboots random satellites now and then.
        radiation = RadiationModel(events_per_machine_hour=20.0,
                                   rng=testbed.streams.stream("radiation"))
        machines = [testbed.satellite(0, identifier) for identifier in range(66)]
        testbed.sim.process(radiation.process(testbed.sim, machines, injector))

        testbed.run(until=120.0)

        stats = testbed.network_statistics()
        print("\n=== Results ===")
        print(f"pings sent: {stats['sent']}, delivered: {stats['delivered']}, "
              f"dropped: {stats['dropped']}")
        print(f"background radiation upsets: {len(radiation.upsets)}")
        print("fault events injected:")
        for event in injector.events[:12]:
            print(f"  t={event.time_s:6.1f}s  {event.kind:<20s} {event.machine} {event.detail}")


if __name__ == "__main__":
    main()
