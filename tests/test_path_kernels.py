"""Property suite for the bounded regional re-solve kernel.

Randomized ISL flicker plus uplink handover churn drives the kernel path
(``repro.topology._kernels``) through ≥50-epoch chains on the Iridium and
Starlink constellations, asserting byte-identity of distances against a
cold ``ShortestPaths`` solve after every epoch.  Both production backends
are exercised — the vectorized NumPy frontier sweep and, when the
``[fast]`` extra is installed, the Numba heap — along with the
interpreted "python" reference heap the Numba leg compiles.  The Numba
parametrization skips cleanly when numba is absent; nothing in the
production import path requires it.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churn_chains import FlickerChain
from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import PathEngine, ShortestPaths
from repro.topology import _kernels

#: Every backend the kernel seam offers; the Numba leg skips when the
#: ``[fast]`` extra is not installed instead of failing collection.
BACKENDS = [
    "numpy",
    "python",
    pytest.param(
        "numba",
        marks=pytest.mark.skipif(
            not _kernels.HAVE_NUMBA,
            reason="numba not installed (the optional [fast] extra)",
        ),
    ),
]


@functools.lru_cache(maxsize=None)
def _base_graph(name):
    """The epoch-0 constellation graph and its ground-station sources."""
    if name == "iridium":
        config = dart_configuration(buoy_count=5, sink_count=8, duration_s=600.0)
    else:
        config = west_africa_configuration(duration_s=600.0, shells="two-lowest")
    calculation = ConstellationCalculation(config)
    state = calculation.state_at(0.0)
    sources = tuple(calculation.node_index.ground_station_indices())
    return state.graph, sources


def _assert_distances_identical(table, graph, sources):
    """Distances and reachability must match a cold solve bit for bit."""
    cold = ShortestPaths(graph, sources=list(sources))
    incremental = table._distances
    reference = cold._distances
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(incremental), finite)
    assert np.array_equal(incremental[finite], reference[finite])


def _run_flicker_chain(name, backend, seed, epochs):
    """Randomized ISL flicker + uplink handover churn against cold solves."""
    full, sources = _base_graph(name)
    chain = FlickerChain(full, np.random.default_rng(seed))
    # The property under test is the kernel's byte-identity contract, so
    # it must stay under fire every epoch (``FlickerChain`` keeps the
    # epochs below the engine's wholesale share).
    engine = PathEngine(sources=list(sources), kernel_backend=backend)
    table = engine.solve(full)
    for _ in range(epochs):
        graph = chain.graph
        new_graph = chain.step()
        table = engine.advance(table, new_graph, new_graph.diff_from(graph))
        _assert_distances_identical(table, new_graph, sources)
    # The chain must have genuinely exercised the kernel, not fallen back.
    assert engine.stats.bypassed_epochs == 0
    assert engine.stats.kernel_calls > 0
    assert engine.stats.rows_kernel > 0
    return engine


class TestKernelChurnProperties:
    """≥50-epoch randomized churn chains, byte-identical to cold solves."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_iridium_flicker_and_handover_churn(self, backend, seed):
        _run_flicker_chain("iridium", backend, seed, epochs=50)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_starlink_flicker_and_handover_churn(self, backend, seed):
        _run_flicker_chain("starlink", backend, seed, epochs=50)


class TestKernelSeam:
    """The backend seam itself: dispatch, validation, graceful absence."""

    def test_backends_produce_identical_tables(self):
        """All available backends agree bit for bit along one churn chain."""
        full, sources = _base_graph("iridium")
        tables = {}
        for backend in _kernels.KERNEL_BACKENDS:
            chain = FlickerChain(full, np.random.default_rng(123))
            engine = PathEngine(sources=list(sources), kernel_backend=backend)
            table = engine.solve(full)
            for _ in range(30):
                graph = chain.graph
                new_graph = chain.step()
                table = engine.advance(table, new_graph, new_graph.diff_from(graph))
            assert engine.stats.rows_kernel > 0
            tables[backend] = table._distances
        reference = tables.pop(_kernels.KERNEL_BACKENDS[0])
        for backend, distances in tables.items():
            assert np.array_equal(distances, reference, equal_nan=True), backend

    def test_resolve_backend_validation(self):
        assert _kernels.resolve_backend("auto") == _kernels.DEFAULT_BACKEND
        assert _kernels.resolve_backend("numpy") == "numpy"

    @pytest.mark.parametrize("backend", ["fortran", "off", None])
    def test_unknown_backend_is_rejected_with_the_available_ones(self, backend):
        """There is no kernel-less mode: None/"off" are unknown backends."""
        for resolve in (
            _kernels.resolve_backend,
            lambda name: PathEngine(sources=[0], kernel_backend=name),
        ):
            with pytest.raises(ValueError, match="available: .*numpy, python, auto"):
                resolve(backend)

    def test_numba_leg_gated_cleanly(self):
        """Without the [fast] extra the seam degrades, never breaks."""
        if _kernels.HAVE_NUMBA:
            assert _kernels.DEFAULT_BACKEND == "numba"
            assert "numba" in _kernels.KERNEL_BACKENDS
        else:
            assert _kernels.DEFAULT_BACKEND == "numpy"
            assert "numba" not in _kernels.KERNEL_BACKENDS
            with pytest.raises(ValueError):
                _kernels.resolve_backend("numba")
        # "auto" always resolves to an importable backend.
        engine = PathEngine(sources=[0], kernel_backend="auto")
        assert engine.kernel_backend == _kernels.DEFAULT_BACKEND
