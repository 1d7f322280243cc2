"""Fig. 1 — overview of the planned phase I Starlink constellation.

The paper's Fig. 1 visualises the five shells of the phase I constellation
(1,584 satellites at 550 km, 1,600 at 1,110 km, 400 at 1,130 km, 375 at
1,275 km, 450 at 1,325 km) together with their ISLs and possible ground
links.  This benchmark regenerates the underlying data: the shell table and
an exportable snapshot of every satellite position and link, and times the
snapshot generation (the work the animation component performs per frame).
"""

from repro.analysis import render_table
from repro.core import ConstellationCalculation, constellation_snapshot, snapshot_to_geojson
from repro.scenarios import operator_shells, west_africa_configuration


def test_fig01_constellation_overview(benchmark):
    shells = operator_shells("starlink")
    rows = [
        [
            shell.name,
            shell.geometry.planes,
            shell.geometry.satellites_per_plane,
            shell.geometry.total_satellites,
            shell.geometry.altitude_km,
            shell.geometry.inclination_deg,
        ]
        for shell in shells
    ]
    print()
    print(render_table(
        ["shell", "planes", "sats/plane", "total", "altitude [km]", "inclination [deg]"],
        rows,
        title="Fig. 1 — phase I Starlink shells",
    ))
    totals = [shell.geometry.total_satellites for shell in shells]
    assert totals == [1584, 1600, 400, 375, 450]
    assert sum(totals) == 4409

    config = west_africa_configuration(duration_s=10.0, shells="all")
    calculation = ConstellationCalculation(config)
    state = calculation.state_at(0.0)

    snapshot = benchmark(constellation_snapshot, state, False)
    assert len(snapshot["satellites"]) == 4409
    altitudes = sorted({round(sat["altitude_km"], -1) for sat in snapshot["satellites"]})
    print(f"distinct shell altitudes in the snapshot: {altitudes}")
    assert any(abs(altitude - 550.0) < 15.0 for altitude in altitudes)
    assert any(abs(altitude - 1325.0) < 15.0 for altitude in altitudes)

    geojson = snapshot_to_geojson(state, shell=0)
    satellite_features = [
        feature for feature in geojson["features"]
        if feature["properties"]["kind"] == "satellite"
    ]
    assert len(satellite_features) == 1584
