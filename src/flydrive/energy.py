"""Battery packs with their state of charge and over-discharge protection
floor, and the calibrated per-mode power model behind every range and
endurance figure. `simulator._Books` books a run's draw against the packs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import statics
from .dynamics import DEFAULT_SPEED_ENVELOPE_MPS
from .fields import FieldError
from .vehicle import RotorModel, VehicleParams, interp

PROPULSION_A = "prop_a"
PROPULSION_B = "prop_b"
ELECTRONICS = "electronics"
BATTERY_IDS = (PROPULSION_A, PROPULSION_B, ELECTRONICS)

POWER_MODES = ("ground", "incline", "wall", "flight", "hover")


class UnknownPayloadError(ValueError):
    """No calibration exists for the requested payload configuration."""


class CalibrationError(ValueError):
    """Calibration points cannot determine the power coefficients."""


@dataclass
class Battery:
    """One pack with SoC tracking; protection trips at the usable floor.

    Mutable and confined to a single simulation context; transfer, don't
    share. The protection threshold is the state of charge equivalent to the
    per-cell cutoff voltage, expressed through usable_fraction.
    """

    battery_id: str
    cells_series: int
    capacity_ah: float
    nominal_cell_voltage: float = 3.7
    soc: float = 1.0
    usable_fraction: float = 1.0
    tripped: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.battery_id not in BATTERY_IDS:
            raise FieldError("battery_id", f"must be one of {BATTERY_IDS}")
        # each check is written so that NaN fails it
        if not self.cells_series >= 1:
            raise FieldError("cells_series", "must be >= 1")
        for name in ("capacity_ah", "nominal_cell_voltage"):
            if not getattr(self, name) > 0:
                raise FieldError(name, "must be > 0")
        if not 0.0 <= self.soc <= 1.0:
            raise FieldError("soc", "must be in [0, 1]")
        if not 0.0 < self.usable_fraction <= 1.0:
            raise FieldError("usable_fraction", "must be in (0, 1]")

    @property
    def is_propulsion(self) -> bool:
        return self.battery_id in (PROPULSION_A, PROPULSION_B)

    @property
    def nominal_voltage(self) -> float:
        return self.cells_series * self.nominal_cell_voltage

    @property
    def pack_energy_wh(self) -> float:
        return self.capacity_ah * self.nominal_voltage

    @property
    def usable_energy_wh(self) -> float:
        return self.pack_energy_wh * self.usable_fraction

    @property
    def protection_soc(self) -> float:
        """SoC floor below which the over-discharge protection cuts power."""
        return 1.0 - self.usable_fraction

    @property
    def remaining_usable_wh(self) -> float:
        return max(0.0, (self.soc - self.protection_soc)) * self.pack_energy_wh


@dataclass
class EnergyLedger:
    """Per-mode Wh and per-battery Ah; `Simulator.run` books into it."""

    per_mode_wh: dict = field(default_factory=dict)
    per_battery_ah: dict = field(default_factory=dict)

    @property
    def total_wh(self) -> float:
        return sum(self.per_mode_wh.values())

    def to_dict(self) -> dict:
        return {
            "total_wh": self.total_wh,
            "per_mode_wh": dict(sorted(self.per_mode_wh.items())),
            "per_battery_ah": dict(sorted(self.per_battery_ah.items())),
        }


def calibrate_ground_power(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Fit P(v) = c1 v + c3 v^3 to (speed, power) samples.

    Least squares through the 2x2 normal equations, which is the exact solve
    with two points; the zero-power-at-rest constraint is built into the
    functional form. A fit that is not > 0 at every speed the controller
    drives is rejected: every planned move must cost energy.
    """
    if len(points) < 2:
        raise CalibrationError("need at least 2 calibration points")
    speeds = [p[0] for p in points]
    if any(v <= 0 for v in speeds):
        raise CalibrationError("calibration speeds must be > 0")
    if len(set(speeds)) != len(speeds):
        raise CalibrationError("duplicate calibration speeds make the system singular")
    try:
        s2, s4, s6 = (sum(v**k for v in speeds) for k in (2, 4, 6))
        b1 = sum(v * p for v, p in points)
        b3 = sum(v**3 * p for v, p in points)
    except OverflowError:
        raise CalibrationError("calibration overflows: speeds too large") from None
    det = s2 * s6 - s4 * s4
    if not det > 0.0:
        raise CalibrationError("calibration speeds too close together: the system is singular")
    c1, c3 = (s6 * b1 - s4 * b3) / det, (s2 * b3 - s4 * b1) / det
    if fault := _ground_fit_fault(c1, c3):
        raise CalibrationError(fault)
    return c1, c3


def _ground_fit_fault(c1: float, c3: float) -> str | None:
    """Why the fit P(v) = v (c1 + c3 v^2) is refused, or None. It must be
    finite and > 0 on (0, v_max], so that every planned move costs energy:
    exactly when c1 + c3 v^2 is > 0 at both ends. NaN fails too."""
    if not (math.isfinite(c1) and math.isfinite(c3)):  # inf * 0.0 at rest would be NaN
        return "calibration overflows: the coefficients are not finite"
    if not (c1 >= 0.0 and c1 + c3 * DEFAULT_SPEED_ENVELOPE_MPS ** 2 > 0.0):
        return (f"fit P(v) = {c1!r} v + {c3!r} v^3 is not > 0 at every speed "
                f"in (0, {DEFAULT_SPEED_ENVELOPE_MPS}] m/s")


@dataclass(frozen=True)
class PowerModel:
    """Calibrated per-mode electrical power. Immutable after construction.

    Ground power is c1 v + c3 v^3 per payload configuration; incline adds the
    rotor power to hold m g sin(psi); wall applies the rotor curve to the
    climb thrust times a wake residual factor; flight and hover are calibrated
    constants.
    """

    params: VehicleParams
    rotor: RotorModel
    ground_coeffs: dict  # payload kg -> (c1, c3)
    flight_power_w: dict  # payload kg -> W at the reference speed
    hover_power_w: float
    wall_wake_factor: float = 1.8

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.hover_power_w >= 0.0:
            raise FieldError("hover_power_w", "must be >= 0")
        if not self.wall_wake_factor > 0.0:
            raise FieldError("wall_wake_factor", "must be > 0")
        for payload, (c1, c3) in self.ground_coeffs.items():
            if fault := _ground_fit_fault(c1, c3):
                raise FieldError(f"ground_coeffs.{payload}", fault)
        for payload, watts in self.flight_power_w.items():
            if not watts > 0.0:  # every planned move must cost energy
                raise FieldError(f"flight_power_w.{payload}", "must be > 0")

    def _lookup(self, table: dict, payload: float, what: str) -> float:
        for key, value in table.items():
            if abs(key - payload) <= 1e-6:
                return value
        raise UnknownPayloadError(
            f"no {what} calibration for payload {payload} kg "
            f"(known: {sorted(table)})"
        )

    def ground_power(self, speed: float, payload: float = 0.0) -> float:
        c1, c3 = self._lookup(self.ground_coeffs, payload, "ground")
        return c1 * speed + c3 * speed**3

    def incline_power(self, slope_deg: float, speed: float, payload: float = 0.0) -> float:
        return self.incline_power_at(speed, payload)(slope_deg)

    def incline_power_at(self, speed: float, payload: float = 0.0):
        """`slope_deg -> incline_power(slope_deg, speed, payload)`. The
        weight m g is bound at the first call and the ground power at the
        first call whose hold the rotors can give, so every call raises
        what `incline_power` would: the MTOM check first, then rotor
        saturation, then an unknown payload. The rotor's power table is
        looked up directly; a hold thrust outside [0, saturation] goes
        through `RotorModel.power_at_thrust`, which raises its error."""
        weight_n = ground_w = None
        rotor = self.rotor
        thrusts, powers, slopes = rotor.thrusts, rotor.powers, rotor._power_slopes
        saturation = rotor._saturation

        def power(slope_deg):
            nonlocal weight_n, ground_w
            if weight_n is None:
                weight_n = self.params.total_mass(payload) * self.params.gravity
            per_rotor = weight_n * math.sin(math.radians(slope_deg)) / 4.0
            if not 0.0 <= per_rotor <= saturation:
                rotor.power_at_thrust(per_rotor)
            rotor_power = 4.0 * interp(per_rotor, thrusts, powers, slopes)
            if ground_w is None:
                ground_w = self.ground_power(speed, payload)
            return ground_w + rotor_power

        return power

    def drive_power_at(self, slope_deg: float | None = None, payload: float = 0.0):
        """`speed -> ground_power(speed)`, or `incline_power` on a slope of
        slope_deg, with the payload lookup and the hold power priced once;
        the same bits, and the same errors, now instead of per call. At rest
        the ground power is 0 W, so `incline_power` there is the rotor power
        that holds the slope, bit for bit."""
        hold_w = None if slope_deg is None else self.incline_power(slope_deg, 0.0, payload)
        c1, c3 = self._lookup(self.ground_coeffs, payload, "ground")
        if hold_w is None:
            return lambda speed: c1 * speed + c3 * speed**3
        return lambda speed: c1 * speed + c3 * speed**3 + hold_w

    def wall_power(self, tilt_deg: float, payload: float = 0.0) -> float:
        analysis = statics.wall_climb_analysis(
            self.params, tilt_deg, climbing=True, rotor=self.rotor, payload=payload
        )
        if math.isinf(analysis.required_thrust):
            raise ValueError(f"wall climb not feasible at tilt {tilt_deg} deg")
        per_rotor = analysis.required_thrust / 4.0
        return self.wall_wake_factor * 4.0 * self.rotor.power_at_thrust(per_rotor)

    def flight_power(self, payload: float = 0.0) -> float:
        return self._lookup(self.flight_power_w, payload, "flight")

    def hover_power(self, payload: float = 0.0) -> float:
        if abs(payload) > 1e-6:
            raise UnknownPayloadError("hover power is calibrated for zero payload only")
        return self.hover_power_w


def mode_power(
    model: PowerModel,
    mode: str,
    speed: float = 0.0,
    payload: float = 0.0,
    slope_deg: float | None = None,
    tilt_deg: float | None = None,
) -> float:
    """Electrical power (W) to maintain an operating state."""
    if not speed >= 0:  # NaN included
        raise ValueError("speed must be >= 0")
    if mode == "ground":
        return model.ground_power(speed, payload)
    if mode == "incline":
        if slope_deg is None:
            raise ValueError("incline mode needs slope_deg")
        return model.incline_power(slope_deg, speed, payload)
    if mode == "wall":
        if tilt_deg is None:
            raise ValueError("wall mode needs tilt_deg")
        return model.wall_power(tilt_deg, payload)
    if mode == "flight":
        return model.flight_power(payload)
    if mode == "hover":
        return model.hover_power(payload)
    raise ValueError(f"unknown mode {mode!r}; expected one of {POWER_MODES}")


def endurance_ratio(model: PowerModel, payload: float, speed: float) -> float:
    """Flight power over ground power at the same speed."""
    ground = model.ground_power(speed, payload)
    if not ground > 0:  # NaN included
        raise ValueError("endurance ratio undefined at zero ground power (v = 0)")
    return model.flight_power(payload) / ground


def usable_propulsion_energy_wh(batteries: list[Battery]) -> float:
    return sum(b.usable_energy_wh for b in batteries if b.is_propulsion)


def range_estimate(
    model: PowerModel,
    batteries: list[Battery],
    mode: str,
    speed: float,
    payload: float = 0.0,
    slope_deg: float | None = None,
    tilt_deg: float | None = None,
) -> float:
    """Distance (m) the propulsion packs sustain a mode at constant speed."""
    if not speed > 0:  # NaN included
        raise ValueError("range needs speed > 0")
    power = mode_power(model, mode, speed, payload, slope_deg, tilt_deg)
    energy = usable_propulsion_energy_wh(batteries)
    if power <= 0:
        return math.inf
    return energy / power * 3600.0 * speed
