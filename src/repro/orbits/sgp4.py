"""SGP4 simplified-perturbations propagator (near-Earth variant).

Celestial extends the SILLEO-SCNS constellation calculation with support for
the SGP4 model (§3.1), which accounts for perturbations from atmospheric
drag, the Earth's oblateness, and resonance effects.  This module implements
the near-Earth SGP4 algorithm (Hoots & Roehrich 1980, as consolidated by
Vallado's reference implementation) from scratch in pure Python:

* un-Kozai recovery of the mean motion,
* secular gravity (J2/J4) and drag (B*) rates,
* long-period and short-period periodic corrections,
* Kepler's equation for the sum of eccentric anomaly and argument of perigee.

The deep-space (SDP4) extension is intentionally omitted: all constellations
considered by the paper (Starlink shells at 550-1325 km, Iridium at 780 km)
orbit with periods far below the 225-minute deep-space threshold.  Requesting
propagation of a deep-space object raises :class:`SGP4Error`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.orbits import constants
from repro.orbits.tle import TwoLineElement

# Gravity model constants in SGP4 canonical units (distances in Earth radii,
# time in minutes).
_XKE = constants.XKE
_XKMPER = constants.EARTH_RADIUS_KM
_CK2 = 0.5 * constants.EARTH_J2
_A3OVK2 = -constants.EARTH_J3 / _CK2
_QOMS2T = ((120.0 - 78.0) / _XKMPER) ** 4
_S = 1.0 + 78.0 / _XKMPER
_TWOPI = 2.0 * math.pi

_DEEP_SPACE_PERIOD_MIN = 225.0


class SGP4Error(RuntimeError):
    """Raised for unsupported orbits or propagation failures (e.g. decay)."""


@dataclass
class SGP4State:
    """Pre-computed initialisation constants for one satellite."""

    # mean elements at epoch (radians, rad/min, Earth radii)
    no_unkozai: float
    ecco: float
    inclo: float
    nodeo: float
    argpo: float
    mo: float
    bstar: float
    aodp: float
    # trigonometric shorthands
    cosio: float
    sinio: float
    x3thm1: float
    x1mth2: float
    x7thm1: float
    # drag coefficients
    isimp: bool
    c1: float
    c4: float
    c5: float
    d2: float
    d3: float
    d4: float
    t2cof: float
    t3cof: float
    t4cof: float
    t5cof: float
    omgcof: float
    xmcof: float
    xnodcf: float
    eta: float
    delmo: float
    sinmo: float
    # secular rates
    mdot: float
    omgdot: float
    xnodot: float
    # long-period coefficients
    xlcof: float
    aycof: float


class SGP4Propagator:
    """Propagates a single TLE with the near-Earth SGP4 model."""

    def __init__(self, tle: TwoLineElement):
        self._state = self._initialise(tle)

    # -- initialisation ---------------------------------------------------

    @staticmethod
    def _initialise(tle: TwoLineElement) -> SGP4State:
        no_kozai = tle.mean_motion_rev_day * _TWOPI / constants.MINUTES_PER_DAY
        if no_kozai <= 0:
            raise SGP4Error("mean motion must be positive")
        period_min = _TWOPI / no_kozai
        if period_min >= _DEEP_SPACE_PERIOD_MIN:
            raise SGP4Error(
                "deep-space orbits (period >= 225 min) are not supported by the "
                "near-Earth SGP4 implementation"
            )
        ecco = tle.eccentricity
        inclo = math.radians(tle.inclination_deg)
        nodeo = math.radians(tle.raan_deg)
        argpo = math.radians(tle.arg_perigee_deg)
        mo = math.radians(tle.mean_anomaly_deg)
        bstar = tle.bstar

        cosio = math.cos(inclo)
        sinio = math.sin(inclo)
        theta2 = cosio * cosio
        x3thm1 = 3.0 * theta2 - 1.0
        x1mth2 = 1.0 - theta2
        x7thm1 = 7.0 * theta2 - 1.0
        eosq = ecco * ecco
        betao2 = 1.0 - eosq
        betao = math.sqrt(betao2)

        # Un-Kozai the mean motion.
        a1 = (_XKE / no_kozai) ** (2.0 / 3.0)
        del1 = 1.5 * _CK2 * x3thm1 / (a1 * a1 * betao * betao2)
        ao = a1 * (1.0 - del1 / 3.0 - del1 * del1 - 134.0 / 81.0 * del1**3)
        delo = 1.5 * _CK2 * x3thm1 / (ao * ao * betao * betao2)
        no_unkozai = no_kozai / (1.0 + delo)
        aodp = ao / (1.0 - delo)

        perigee_km = (aodp * (1.0 - ecco) - 1.0) * _XKMPER
        if perigee_km < 0.0:
            raise SGP4Error("orbit perigee is below the Earth surface")

        # Adjust s4/qoms24 for low-perigee orbits.
        s4 = _S
        qoms24 = _QOMS2T
        if perigee_km < 156.0:
            s4 = perigee_km - 78.0
            if perigee_km < 98.0:
                s4 = 20.0
            qoms24 = ((120.0 - s4) / _XKMPER) ** 4
            s4 = s4 / _XKMPER + 1.0

        isimp = perigee_km < 220.0

        pinvsq = 1.0 / (aodp * aodp * betao2 * betao2)
        tsi = 1.0 / (aodp - s4)
        eta = aodp * ecco * tsi
        etasq = eta * eta
        eeta = ecco * eta
        psisq = abs(1.0 - etasq)
        coef = qoms24 * tsi**4
        coef1 = coef / psisq**3.5
        c2 = coef1 * no_unkozai * (
            aodp * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
            + 0.75
            * _CK2
            * tsi
            / psisq
            * x3thm1
            * (8.0 + 3.0 * etasq * (8.0 + etasq))
        )
        c1 = bstar * c2
        c3 = 0.0
        if ecco > 1.0e-4:
            c3 = coef * tsi * _A3OVK2 * no_unkozai * sinio / ecco
        c4 = (
            2.0
            * no_unkozai
            * coef1
            * aodp
            * betao2
            * (
                eta * (2.0 + 0.5 * etasq)
                + ecco * (0.5 + 2.0 * etasq)
                - 2.0
                * _CK2
                * tsi
                / (aodp * psisq)
                * (
                    -3.0 * x3thm1 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                    + 0.75
                    * x1mth2
                    * (2.0 * etasq - eeta * (1.0 + etasq))
                    * math.cos(2.0 * argpo)
                )
            )
        )
        c5 = 2.0 * coef1 * aodp * betao2 * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq)

        temp1 = 1.5 * constants.EARTH_J2 * pinvsq * no_unkozai
        temp2 = 0.5 * temp1 * constants.EARTH_J2 * pinvsq
        temp3 = -0.46875 * constants.EARTH_J4 * pinvsq * pinvsq * no_unkozai
        theta4 = theta2 * theta2
        mdot = (
            no_unkozai
            + 0.5 * temp1 * betao * x3thm1
            + 0.0625 * temp2 * betao * (13.0 - 78.0 * theta2 + 137.0 * theta4)
        )
        omgdot = (
            -0.5 * temp1 * (1.0 - 5.0 * theta2)
            + 0.0625 * temp2 * (7.0 - 114.0 * theta2 + 395.0 * theta4)
            + temp3 * (3.0 - 36.0 * theta2 + 49.0 * theta4)
        )
        xhdot1 = -temp1 * cosio
        xnodot = (
            xhdot1
            + (0.5 * temp2 * (4.0 - 19.0 * theta2) + 2.0 * temp3 * (3.0 - 7.0 * theta2))
            * cosio
        )
        omgcof = bstar * c3 * math.cos(argpo)
        xmcof = 0.0
        if ecco > 1.0e-4:
            xmcof = -(2.0 / 3.0) * coef * bstar / eeta
        xnodcf = 3.5 * betao2 * xhdot1 * c1
        t2cof = 1.5 * c1

        d2 = d3 = d4 = 0.0
        t3cof = t4cof = t5cof = 0.0
        if not isimp:
            c1sq = c1 * c1
            d2 = 4.0 * aodp * tsi * c1sq
            temp = d2 * tsi * c1 / 3.0
            d3 = (17.0 * aodp + s4) * temp
            d4 = 0.5 * temp * aodp * tsi * (221.0 * aodp + 31.0 * s4) * c1
            t3cof = d2 + 2.0 * c1sq
            t4cof = 0.25 * (3.0 * d3 + c1 * (12.0 * d2 + 10.0 * c1sq))
            t5cof = 0.2 * (
                3.0 * d4 + 12.0 * c1 * d3 + 6.0 * d2 * d2 + 15.0 * c1sq * (2.0 * d2 + c1sq)
            )

        denominator = 1.0 + cosio
        if abs(denominator) < 1.5e-12:
            denominator = 1.5e-12
        xlcof = 0.125 * _A3OVK2 * sinio * (3.0 + 5.0 * cosio) / denominator
        aycof = 0.25 * _A3OVK2 * sinio
        delmo = (1.0 + eta * math.cos(mo)) ** 3
        sinmo = math.sin(mo)

        return SGP4State(
            no_unkozai=no_unkozai,
            ecco=ecco,
            inclo=inclo,
            nodeo=nodeo,
            argpo=argpo,
            mo=mo,
            bstar=bstar,
            aodp=aodp,
            cosio=cosio,
            sinio=sinio,
            x3thm1=x3thm1,
            x1mth2=x1mth2,
            x7thm1=x7thm1,
            isimp=isimp,
            c1=c1,
            c4=c4,
            c5=c5,
            d2=d2,
            d3=d3,
            d4=d4,
            t2cof=t2cof,
            t3cof=t3cof,
            t4cof=t4cof,
            t5cof=t5cof,
            omgcof=omgcof,
            xmcof=xmcof,
            xnodcf=xnodcf,
            eta=eta,
            delmo=delmo,
            sinmo=sinmo,
            mdot=mdot,
            omgdot=omgdot,
            xnodot=xnodot,
            xlcof=xlcof,
            aycof=aycof,
        )

    # -- propagation ------------------------------------------------------

    def propagate_minutes(self, tsince_min: float) -> tuple[np.ndarray, np.ndarray]:
        """Position [km] and velocity [km/s] ``tsince_min`` minutes after epoch."""
        s = self._state

        xmdf = s.mo + s.mdot * tsince_min
        omgadf = s.argpo + s.omgdot * tsince_min
        xnoddf = s.nodeo + s.xnodot * tsince_min
        omega = omgadf
        xmp = xmdf
        tsq = tsince_min * tsince_min
        xnode = xnoddf + s.xnodcf * tsq
        tempa = 1.0 - s.c1 * tsince_min
        tempe = s.bstar * s.c4 * tsince_min
        templ = s.t2cof * tsq

        if not s.isimp:
            delomg = s.omgcof * tsince_min
            delm = s.xmcof * ((1.0 + s.eta * math.cos(xmdf)) ** 3 - s.delmo)
            temp_periodic = delomg + delm
            xmp = xmdf + temp_periodic
            omega = omgadf - temp_periodic
            tcube = tsq * tsince_min
            tfour = tsince_min * tcube
            tempa = tempa - s.d2 * tsq - s.d3 * tcube - s.d4 * tfour
            tempe = tempe + s.bstar * s.c5 * (math.sin(xmp) - s.sinmo)
            templ = templ + s.t3cof * tcube + tfour * (s.t4cof + tsince_min * s.t5cof)

        if tempa < 0.0:
            raise SGP4Error("satellite has decayed (drag term exceeded orbit energy)")
        a = s.aodp * tempa * tempa
        e = s.ecco - tempe
        if e < 1.0e-6:
            e = 1.0e-6
        if e >= 1.0 or a * (1.0 - e) < 1.0:
            raise SGP4Error("satellite has decayed (perigee below Earth surface)")
        xl = xmp + omega + xnode + s.no_unkozai * templ
        beta2 = 1.0 - e * e
        xn = _XKE / a**1.5

        # Long-period periodics.
        axn = e * math.cos(omega)
        temp = 1.0 / (a * beta2)
        xll = temp * s.xlcof * axn
        aynl = temp * s.aycof
        xlt = xl + xll
        ayn = e * math.sin(omega) + aynl

        # Solve Kepler's equation for (E + omega).
        u = (xlt - xnode) % _TWOPI
        eo1 = u
        for _ in range(10):
            sineo1 = math.sin(eo1)
            coseo1 = math.cos(eo1)
            tem5 = (u - ayn * coseo1 + axn * sineo1 - eo1) / (
                1.0 - coseo1 * axn - sineo1 * ayn
            )
            if abs(tem5) >= 0.95:
                tem5 = math.copysign(0.95, tem5)
            eo1 += tem5
            if abs(tem5) < 1.0e-12:
                break
        sineo1 = math.sin(eo1)
        coseo1 = math.cos(eo1)

        # Short-period preliminary quantities.
        ecose = axn * coseo1 + ayn * sineo1
        esine = axn * sineo1 - ayn * coseo1
        elsq = axn * axn + ayn * ayn
        temp = 1.0 - elsq
        pl = a * temp
        r = a * (1.0 - ecose)
        rdot = _XKE * math.sqrt(a) * esine / r
        rfdot = _XKE * math.sqrt(pl) / r
        betal = math.sqrt(temp)
        temp3 = esine / (1.0 + betal)
        cosu = a / r * (coseo1 - axn + ayn * temp3)
        sinu = a / r * (sineo1 - ayn - axn * temp3)
        u_angle = math.atan2(sinu, cosu)
        sin2u = 2.0 * sinu * cosu
        cos2u = 2.0 * cosu * cosu - 1.0
        temp = 1.0 / pl
        temp1 = _CK2 * temp
        temp2 = temp1 * temp

        # Short-period periodics.
        rk = r * (1.0 - 1.5 * temp2 * betal * s.x3thm1) + 0.5 * temp1 * s.x1mth2 * cos2u
        if rk < 1.0:
            raise SGP4Error("satellite has decayed (radius below Earth surface)")
        uk = u_angle - 0.25 * temp2 * s.x7thm1 * sin2u
        xnodek = xnode + 1.5 * temp2 * s.cosio * sin2u
        xinck = s.inclo + 1.5 * temp2 * s.cosio * s.sinio * cos2u
        rdotk = rdot - xn * temp1 * s.x1mth2 * sin2u
        rfdotk = rfdot + xn * temp1 * (s.x1mth2 * cos2u + 1.5 * s.x3thm1)

        # Orientation vectors and final position/velocity.
        sinuk = math.sin(uk)
        cosuk = math.cos(uk)
        sinik = math.sin(xinck)
        cosik = math.cos(xinck)
        sinnok = math.sin(xnodek)
        cosnok = math.cos(xnodek)
        xmx = -sinnok * cosik
        xmy = cosnok * cosik
        ux = xmx * sinuk + cosnok * cosuk
        uy = xmy * sinuk + sinnok * cosuk
        uz = sinik * sinuk
        vx = xmx * cosuk - cosnok * sinuk
        vy = xmy * cosuk - sinnok * sinuk
        vz = sinik * cosuk

        position = np.array([rk * ux, rk * uy, rk * uz]) * _XKMPER
        velocity = (
            np.array(
                [
                    rdotk * ux + rfdotk * vx,
                    rdotk * uy + rfdotk * vy,
                    rdotk * uz + rfdotk * vz,
                ]
            )
            * _XKMPER
            / 60.0
        )
        return position, velocity

    def position_eci(self, t_seconds: float) -> np.ndarray:
        """ECI position [km] ``t_seconds`` after the TLE epoch."""
        position, _ = self.propagate_minutes(t_seconds / 60.0)
        return position

    def position_velocity_eci(self, t_seconds: float) -> tuple[np.ndarray, np.ndarray]:
        """ECI position [km] and velocity [km/s] ``t_seconds`` after the TLE epoch."""
        return self.propagate_minutes(t_seconds / 60.0)
