"""Astronomical time utilities: Julian dates, GMST and the simulation epoch."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

from repro.orbits import constants


def julian_date(moment: datetime) -> float:
    """Julian date (UT1≈UTC) for a timezone-aware or naive-UTC datetime."""
    if moment.tzinfo is not None:
        moment = moment.astimezone(timezone.utc).replace(tzinfo=None)
    year, month = moment.year, moment.month
    day = (
        moment.day
        + moment.hour / 24.0
        + moment.minute / 1440.0
        + (moment.second + moment.microsecond * 1e-6) / constants.SECONDS_PER_DAY
    )
    if month <= 2:
        year -= 1
        month += 12
    a = math.floor(year / 100)
    b = 2 - a + math.floor(a / 4)
    return (
        math.floor(365.25 * (year + 4716))
        + math.floor(30.6001 * (month + 1))
        + day
        + b
        - 1524.5
    )


def gmst_rad(jd: float) -> float:
    """Greenwich mean sidereal time in radians for a Julian date."""
    t = (jd - 2451545.0) / 36525.0
    gmst_deg = (
        280.46061837
        + 360.98564736629 * (jd - 2451545.0)
        + 0.000387933 * t * t
        - t * t * t / 38710000.0
    )
    return math.radians(gmst_deg % 360.0)


@dataclass(frozen=True)
class Epoch:
    """The absolute start instant of an emulation run.

    All simulation times are seconds relative to this epoch.  Pinning the
    epoch in the configuration is what makes Celestial runs repeatable
    (paper §4.2, "Reproducibility").
    """

    start: datetime = datetime(2022, 1, 1, 0, 0, 0)

    def __post_init__(self):
        start = self.start
        if start.tzinfo is not None:
            start = start.astimezone(timezone.utc).replace(tzinfo=None)
            object.__setattr__(self, "start", start)

    @property
    def julian_date(self) -> float:
        """Julian date of the epoch."""
        return julian_date(self.start)

    def julian_date_at(self, sim_time_s: float) -> float:
        """Julian date corresponding to a simulation time offset."""
        return self.julian_date + sim_time_s / constants.SECONDS_PER_DAY

    def gmst_at(self, sim_time_s: float) -> float:
        """GMST in radians at a simulation time offset."""
        return gmst_rad(self.julian_date_at(sim_time_s))
