"""Bitwise pins of the epoch's small-vector arithmetic.

The epoch computes its length-3 dot products and row norms in column form
(``orbits.visibility._dot``), takes each orbital plane's node trigonometry
once (``orbits.shells.circular_positions_eci``) and rotates between the
inertial and the Earth-fixed frame with one matrix product
(``orbits.coordinates._rotate``).  Each is pinned here against the form it
replaced, bit for bit: ``np.add.reduce`` over the last axis, per-satellite
``cos``/``sin`` of the node, and the same row rotated in a batch.
"""

import math

import numpy as np
import pytest

from repro.orbits import GroundStation, Shell, ShellGeometry
from repro.orbits.coordinates import ecef_to_eci, eci_to_ecef
from repro.orbits.shells import circular_positions_eci, stacked_elements
from repro.orbits.visibility import _dot, _row_norm
from repro.scenarios.operators import SHELLS, operator_shells

_NUMPY = f"NumPy {np.__version__}"


def _same_bits(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    differ = actual.tobytes() != expected.tobytes()
    assert not differ, f"{what}: the bits differ on {_NUMPY}"


def _rows(rng, shape):
    """Signed components whose magnitudes span 1e-300 … 1e300."""
    magnitude = 10.0 ** rng.uniform(-300.0, 300.0, shape)
    return np.where(rng.random(shape) < 0.5, -magnitude, magnitude)


def _special_rows():
    """Rows of signed and underflowing zeros, infinities and NaNs."""
    tiny, zero = 1e-200, 0.0
    return np.array(
        [
            [zero, zero, zero],
            [-zero, -zero, -zero],
            [-zero, zero, -zero],
            [tiny, -tiny, tiny],  # every product underflows, signs mixed
            [-tiny, -tiny, -tiny],
            [1e300, 1e300, -1e300],  # products overflow to ±inf
            [np.inf, 1.0, 2.0],
            [-np.inf, np.inf, 0.0],
            [np.nan, 1.0, 2.0],
            [1.0, np.nan, np.inf],
            [5e-324, -5e-324, 5e-324],
            [1.0, -1.0, 0.0],
        ]
    )


@pytest.mark.parametrize("shape", [(3,), (1, 3), (257, 3), (4, 63, 3)], ids=str)
def test_dot_is_the_reduction_on_random_rows(shape):
    rng = np.random.default_rng(sum(shape))
    u, v = _rows(rng, shape), _rows(rng, shape)
    with np.errstate(all="ignore"):
        expected = np.add.reduce(u * v, axis=-1)
        _same_bits(_dot(u, v), expected, f"dot of {shape}")
        _same_bits(_dot(u, u), np.add.reduce(u * u, axis=-1), f"square of {shape}")
        _same_bits(_row_norm(u), np.linalg.norm(u, axis=-1), f"norm of {shape}")


def test_dot_is_the_reduction_on_zeros_infinities_and_nans():
    special = _special_rows()
    pairs = np.array([(i, j) for i in range(len(special)) for j in range(len(special))])
    u, v = special[pairs[:, 0]], special[pairs[:, 1]]
    with np.errstate(all="ignore"):
        _same_bits(_dot(u, v), np.add.reduce(u * v, axis=-1), "special rows")
        _same_bits(_row_norm(u), np.linalg.norm(u, axis=-1), "special norms")
        for row in special:  # 1-D
            _same_bits(_dot(row, -row), np.add.reduce(row * -row, axis=-1), f"1-D {row}")
    # The sum of three negative zeros is +0.0, as the reduction's is.
    assert math.copysign(1.0, float(_dot(np.array([-0.0, 0.0, -0.0]), np.ones(3)))) == 1.0


def test_dot_broadcasts_a_ground_row_over_a_station_satellite_grid():
    rng = np.random.default_rng(7)
    ground = _rows(rng, (5, 1, 3))
    satellites = _rows(rng, (40, 3))
    to_satellite = satellites - ground
    with np.errstate(all="ignore"):
        expected = np.add.reduce(to_satellite * ground, axis=-1)
        _same_bits(_dot(to_satellite, ground), expected, "(G, N, 3) against (G, 1, 3)")


def _per_satellite_positions(shell, t_seconds):
    """The kernel with the node's trigonometry taken once per satellite."""
    radius, _, raan_rate, _, latitude, latitude_rate, cos_i, sin_i = shell.elements
    raan = np.radians(shell._raan_deg) + raan_rate * t_seconds
    latitude = latitude + latitude_rate * t_seconds
    cos_u, sin_u = np.cos(latitude), np.sin(latitude)
    cos_o, sin_o = np.cos(raan), np.sin(raan)
    x = radius * (cos_u * cos_o - sin_u * sin_o * cos_i)
    y = radius * (cos_u * sin_o + sin_u * cos_o * cos_i)
    z = radius * (sin_u * sin_i)
    return np.stack([x, y, z], axis=-1)


_TIMES = (0.0, 2.0, 1234.5, 3599.0)
_CATALOGUE = [shell for operator in SHELLS for shell in operator_shells(operator)]


@pytest.mark.parametrize("shell_config", _CATALOGUE, ids=lambda shell: shell.name)
def test_per_plane_nodes_match_per_satellite_trigonometry(shell_config):
    shell = Shell(shell_config.geometry)
    for t_seconds in _TIMES:
        _same_bits(
            shell.positions_eci(t_seconds),
            _per_satellite_positions(shell, t_seconds),
            f"{shell_config.name} at t={t_seconds}",
        )


def test_the_stacked_catalogue_matches_each_shell_alone():
    lonely = ShellGeometry(1, 1, 1200.0, 40.0, raan_offset_deg=17.0)
    shells = [Shell(shell.geometry) for shell in _CATALOGUE] + [Shell(lonely)]
    elements = stacked_elements(shells)
    for t_seconds in _TIMES:
        stacked = circular_positions_eci(elements, t_seconds)
        expected = [_per_satellite_positions(shell, t_seconds) for shell in shells]
        _same_bits(stacked, np.concatenate(expected), f"stacked catalogue at t={t_seconds}")


@pytest.mark.parametrize("rotate", [eci_to_ecef, ecef_to_eci], ids=lambda f: f.__name__)
def test_a_row_rotates_to_the_same_bits_alone_or_in_any_batch(rotate):
    rng = np.random.default_rng(11)
    rows = rng.uniform(-8000.0, 8000.0, (600, 3))
    for theta in rng.uniform(-7.0, 7.0, 5):
        batch = rotate(rows, theta)
        for index in range(0, len(rows), 7):
            row = rows[index]
            _same_bits(rotate(row, theta), batch[index], "1-D vector")
            _same_bits(rotate(row[None], theta), batch[index : index + 1], "one-row array")
            _same_bits(rotate(list(row), theta), batch[index], "list")
        for start, stop in ((0, 2), (5, 8), (3, 67), (100, 600)):
            _same_bits(rotate(rows[start:stop], theta), batch[start:stop], f"rows {start}:{stop}")


def test_a_ground_station_rotates_as_a_row_of_a_batch():
    stations = [GroundStation("accra", 5.6, -0.2), GroundStation("fiji", -17.7, 178.1)]
    batch = np.stack([station.position_ecef for station in stations])
    for gmst in (0.0, 1.1, 4.9):
        rotated = ecef_to_eci(batch, gmst)
        for index, station in enumerate(stations):
            _same_bits(station.position_eci(gmst), rotated[index], station.name)
