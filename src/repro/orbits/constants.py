"""Physical and astrodynamic constants (WGS-72/WGS-84, SI-adjacent units).

Distances are kilometres, times are seconds unless stated otherwise, matching
the conventions used throughout the constellation calculation.
"""

# Speed of light in vacuum [km/s].  ISLs and RF ground links both propagate at
# c in the paper's latency model (§4.1).
SPEED_OF_LIGHT_KM_S = 299_792.458

# Earth gravitational parameter [km^3/s^2] (WGS-72, as used by SGP4).
EARTH_MU_KM3_S2 = 398_600.8

# Earth radii [km].
EARTH_RADIUS_KM = 6_378.135          # WGS-72 equatorial radius (SGP4)
EARTH_RADIUS_MEAN_KM = 6_371.0

# Zonal harmonics (WGS-72).
EARTH_J2 = 1.082616e-3
EARTH_J3 = -2.53881e-6
EARTH_J4 = -1.65597e-6

# SGP4 canonical units.
XKE = 0.0743669161          # sqrt(GM) in (earth radii)^1.5 / min

# Seconds per day / minutes per day.
SECONDS_PER_DAY = 86_400.0
MINUTES_PER_DAY = 1_440.0

# Altitude below which an inter-satellite laser link is considered blocked by
# the atmosphere (grazing height over the Earth's surface, km).  Hypatia and
# SILLEO-SCNS commonly use 80-100 km; Celestial models refraction loss for
# links dipping into the atmosphere (§3.1).
ATMOSPHERE_GRAZING_ALTITUDE_KM = 80.0

# Default minimum elevation angle for ground-to-satellite links [degrees].
DEFAULT_MIN_ELEVATION_DEG = 40.0
