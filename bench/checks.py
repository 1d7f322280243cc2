"""Digests the correctness checks compare (bit patterns, not tolerances)."""

from __future__ import annotations

import hashlib

import numpy as np


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape, bytes) and the ``repr`` of the rest."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(f"{part.dtype}{part.shape}".encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
        sha.update(b"|")
    return sha.hexdigest()


def snapshot_digest(snapshot) -> str:
    """Digest of an ``EpochSnapshot`` over exactly what ``same_bits`` compares.

    The subscriber's replica lives in the sink process, so the two sides
    exchange this digest instead of the arrays: equal digests ⇔ ``same_bits``.
    """
    return digest(
        snapshot.epoch,
        snapshot.time_s,
        snapshot.node_count,
        snapshot.node_a,
        snapshot.node_b,
        snapshot.delay_ms,
        snapshot.bandwidth_kbps,
        snapshot.link_type,
        *(part for shell in sorted(snapshot.active) for part in (shell, snapshot.active[shell])),
    )


def state_digest(state) -> str:
    """Digest of a ``ConstellationState``: graph arrays, activity, path tables."""
    graph = state.graph
    return digest(
        state.time_s,
        graph.node_a,
        graph.node_b,
        graph.distances_km,
        graph.delays_ms,
        graph.bandwidths_kbps,
        graph.link_type_codes,
        *(state.active_satellites[shell] for shell in sorted(state.active_satellites)),
        *(state.satellite_positions_ecef[shell]
          for shell in sorted(state.satellite_positions_ecef)),
        list(state.paths.sources),
        *(state.paths.delays_from(source) for source in state.paths.sources),
    )
