"""Two-line element (TLE) mean elements, the input of the SGP4 propagator.

Celestial obtains SGP4 input parameters either from the NORAD TLE database
(for satellites already in orbit) or computes them from simple shell
parameters such as inclination and altitude (§3.1).  This module supports
both: parsing a published TLE and building a synthetic one from a shell
satellite's Keplerian elements.  It keeps the elements SGP4 propagates with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

from repro.orbits import constants
from repro.orbits.kepler import KeplerianElements


class TLEError(ValueError):
    """Raised when a TLE line cannot be parsed or fails validation."""


def _checksum(line: str) -> int:
    """TLE modulo-10 checksum: digits count their value, '-' counts one."""
    total = 0
    for char in line[:68]:
        if char.isdigit():
            total += int(char)
        elif char == "-":
            total += 1
    return total % 10


def _parse_exponential(field: str) -> float:
    """Parse the 'assumed decimal point' exponential TLE field."""
    field = field.strip()
    if not field:
        return 0.0
    mantissa_sign = -1.0 if field[0] == "-" else 1.0
    body = field[1:] if field[0] in "+- " else field
    body = body.strip()
    if not body:
        return 0.0
    exponent_part = body[-2:]
    mantissa_part = body[:-2]
    mantissa = mantissa_sign * float(f"0.{mantissa_part}") if mantissa_part else 0.0
    exponent = int(exponent_part.replace("+", ""))
    return mantissa * (10.0**exponent)


@dataclass(frozen=True)
class TwoLineElement:
    """The mean elements of one two-line element set."""

    name: str
    epoch: datetime
    mean_motion_rev_day: float
    eccentricity: float
    inclination_deg: float
    raan_deg: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    bstar: float = 0.0

    @classmethod
    def parse(cls, line1: str, line2: str, name: str = "") -> "TwoLineElement":
        """Parse a TLE from its two 69-character lines."""
        for index, line in ((1, line1), (2, line2)):
            if len(line) < 68:
                raise TLEError(f"line {index} is too short: {len(line)} chars")
            if line[0] != str(index):
                raise TLEError(f"line {index} must start with '{index}'")
            if len(line) >= 69 and line[68].isdigit():
                if int(line[68]) != _checksum(line):
                    raise TLEError(f"line {index} checksum mismatch")
        epoch_year = int(line1[18:20])
        epoch_year += 2000 if epoch_year < 57 else 1900
        epoch_day = float(line1[20:32])
        return cls(
            name=name.strip(),
            epoch=datetime(epoch_year, 1, 1) + timedelta(days=epoch_day - 1.0),
            mean_motion_rev_day=float(line2[52:63]),
            eccentricity=float(f"0.{line2[26:33].strip()}"),
            inclination_deg=float(line2[8:16]),
            raan_deg=float(line2[17:25]),
            arg_perigee_deg=float(line2[34:42]),
            mean_anomaly_deg=float(line2[43:51]),
            bstar=_parse_exponential(line1[53:61]),
        )

    @classmethod
    def from_elements(
        cls,
        elements: KeplerianElements,
        epoch: datetime,
        name: str = "",
        bstar: float = 0.0,
    ) -> "TwoLineElement":
        """Build a synthetic TLE from Keplerian elements at a given epoch."""
        mean_motion_rev_day = (
            elements.mean_motion_rad_s * constants.SECONDS_PER_DAY / (2.0 * math.pi)
        )
        return cls(
            name=name,
            epoch=epoch,
            mean_motion_rev_day=mean_motion_rev_day,
            eccentricity=elements.eccentricity,
            inclination_deg=elements.inclination_deg,
            raan_deg=elements.raan_deg,
            arg_perigee_deg=elements.arg_perigee_deg,
            mean_anomaly_deg=elements.mean_anomaly_deg,
            bstar=bstar,
        )

    @property
    def period_s(self) -> float:
        """Orbital period in seconds."""
        return constants.SECONDS_PER_DAY / self.mean_motion_rev_day
