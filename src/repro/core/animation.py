"""Constellation snapshot export (the optional animation component).

Celestial's animation component visualises the state of the constellation
during a run (§3.1, Fig. 1).  An offline library cannot open a 3D window, so
this module exports the same information in structured form: plain
dictionaries and GeoJSON, which downstream tools (or the paper's figures) can
render.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constellation import ConstellationState
from repro.orbits import constants
from repro.orbits.coordinates import ecef_to_geodetic
from repro.orbits.visibility import _row_norm
from repro.topology.graph import _LINK_TYPE_BY_CODE


def constellation_snapshot(state: ConstellationState, include_links: bool = True) -> dict:
    """Structured snapshot of satellites, ground stations and links."""
    satellites = []
    for shell, positions in state.satellite_positions_ecef.items():
        latitudes, longitudes = state.geodetic(shell)
        active = state.active_satellites[shell]
        altitudes = _row_norm(positions) - constants.EARTH_RADIUS_KM
        for identifier in range(positions.shape[0]):
            satellites.append(
                {
                    "shell": shell,
                    "identifier": identifier,
                    "latitude_deg": float(latitudes[identifier]),
                    "longitude_deg": float(longitudes[identifier]),
                    "altitude_km": float(altitudes[identifier]),
                    "active": bool(active[identifier]),
                }
            )
    ground_stations = []
    for name, position in state.ground_positions_ecef.items():
        lat, lon, alt = ecef_to_geodetic(position)
        ground_stations.append(
            {
                "name": name,
                "latitude_deg": float(lat),
                "longitude_deg": float(lon),
                "altitude_km": float(alt),
            }
        )
    snapshot = {
        "time_s": state.time_s,
        "satellites": satellites,
        "ground_stations": ground_stations,
    }
    if include_links:
        graph = state.graph
        describe = state.node_index.describe
        snapshot["links"] = [
            {
                "a": describe(a),
                "b": describe(b),
                "distance_km": distance,
                "delay_ms": delay,
                "type": _LINK_TYPE_BY_CODE[code].value,
            }
            for a, b, distance, delay, code in zip(
                graph.node_a.tolist(),
                graph.node_b.tolist(),
                graph.distances_km.tolist(),
                graph.delays_ms.tolist(),
                graph.link_type_codes.tolist(),
            )
        ]
    return snapshot


def snapshot_to_geojson(state: ConstellationState, shell: Optional[int] = None) -> dict:
    """GeoJSON FeatureCollection of satellite and ground-station positions."""
    features = []
    for shell_index in state.satellite_positions_ecef:
        if shell is not None and shell_index != shell:
            continue
        latitudes, longitudes = state.geodetic(shell_index)
        active = state.active_satellites[shell_index]
        for identifier in range(latitudes.shape[0]):
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        "coordinates": [
                            float(longitudes[identifier]),
                            float(latitudes[identifier]),
                        ],
                    },
                    "properties": {
                        "kind": "satellite",
                        "shell": shell_index,
                        "identifier": identifier,
                        "active": bool(active[identifier]),
                    },
                }
            )
    for name, position in state.ground_positions_ecef.items():
        lat, lon, _ = ecef_to_geodetic(position)
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [float(lon), float(lat)]},
                "properties": {"kind": "ground_station", "name": name},
            }
        )
    return {"type": "FeatureCollection", "features": features}
