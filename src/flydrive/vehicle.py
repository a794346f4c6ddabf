"""Physical parameterization of the vehicle: geometry, masses, rotor
performance curves built from ingested test-stand tables, and the headline
design metrics (thrust-to-weight, payload, hover sizing)."""

from __future__ import annotations

import io
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field

from .fields import FieldError

GRAVITY = 9.81  # m/s^2, used for all kgf <-> N conversions

MASS_CATEGORIES = ("structure", "propulsion", "energy", "gam", "electronics", "payload")


class RotorTableError(ValueError):
    """Malformed or non-physical rotor performance table."""


class ThrustSaturationError(ValueError):
    """Requested thrust exceeds the rotor's maximum."""


@dataclass(frozen=True)
class VehicleParams:
    """Single source of physical truth for the vehicle.

    All masses in kg, lengths in m, angles handled in degrees at the API
    boundary. Frozen: safe to share between threads.
    """

    empty_mass: float = 2.7
    mtom: float = 4.0
    # half-spacing between wheel contact lines, longitudinal / lateral
    wheel_contact_half_spacing_long: float = 0.270
    wheel_contact_half_spacing_lat: float = 0.270
    # center of mass height above the wheel contact plane; together with the
    # longitudinal half-spacing this fixes the 60.93 deg tip angle
    com_height: float = 0.1501
    gravity: float = GRAVITY
    rolling_resistance_coeff: float = 0.03
    wall_friction_coeff: float = 0.6  # static, rubber on concrete
    # skid-steer lateral Coulomb friction for the fixed wheels
    lateral_friction_coeff: float = 0.6
    # body moment of inertia about the up axis (kg m^2), box estimate from
    # the body dimensions and empty mass
    yaw_inertia: float = 0.217

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.empty_mass > 0:
            raise FieldError("empty_mass", "must be > 0")
        if not self.empty_mass <= self.mtom + 1e-9:
            if self.empty_mass == VehicleParams.empty_mass:  # named by the setting that moved
                raise FieldError("mtom", f"{self.mtom} kg is below empty_mass {self.empty_mass} kg")
            raise FieldError("empty_mass", f"{self.empty_mass} kg exceeds mtom {self.mtom} kg")
        for name in ("wheel_contact_half_spacing_long", "wheel_contact_half_spacing_lat",
                     "com_height", "gravity", "yaw_inertia"):
            if not getattr(self, name) > 0:
                raise FieldError(name, "must be > 0")
        for name in ("rolling_resistance_coeff", "wall_friction_coeff",
                     "lateral_friction_coeff"):
            if not getattr(self, name) >= 0:
                raise FieldError(name, "must be >= 0")
        for name in ("empty_mass", "mtom"):
            mass = getattr(self, name)
            if not mass * self.gravity < math.inf:
                # named by the setting that moved: a raised gravity, else the mass
                key = "gravity" if self.gravity != VehicleParams.gravity else name
                raise FieldError(key, f"{name} {mass} kg weighs inf N at {self.gravity} "
                                 f"m/s^2; the weight must be finite")

    def total_mass(self, payload: float = 0.0) -> float:
        if not payload >= 0:  # NaN included
            raise FieldError("payload", "must be >= 0")
        m = self.empty_mass + payload
        if m > self.mtom + 1e-9:
            raise ValueError(f"mass {m} kg exceeds MTOM {self.mtom} kg")
        return m


@dataclass(frozen=True)
class RotorModel:
    """Monotone thrust<->power<->command maps from a performance table.

    Piecewise-linear between samples; exact at sample points. Thrust in
    newtons, electrical power in watts, command normalized to [0, 1]. Each
    map's segment slopes are computed once, at construction; every lookup
    goes through `interp` with them. `realise` is the step laws' one call:
    the command for a thrust and the thrust that command gives, its two
    lookups written out inline with `interp`'s arithmetic.
    """

    commands: tuple[float, ...]
    thrusts: tuple[float, ...]
    powers: tuple[float, ...]
    name: str = "rotor"
    # set by __post_init__: each map's segment slopes, and the largest
    # thrust a lookup accepts
    _thrust_slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _power_slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _command_slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _saturation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.commands)
        if n < 2 or len(self.thrusts) != n or len(self.powers) != n:
            raise RotorTableError("need at least two aligned (command, thrust, power) samples")
        if not all(map(math.isfinite, (*self.commands, *self.thrusts, *self.powers))):
            raise RotorTableError("table values must be finite")
        if abs(self.commands[0]) > 1e-12 or abs(self.commands[-1] - 1.0) > 1e-12:
            raise RotorTableError("command samples must span [0, 1]")
        if abs(self.thrusts[0]) > 1e-12:
            raise RotorTableError("thrust at zero command must be 0")
        if self.powers[0] < 0:
            raise RotorTableError("idle power must be >= 0")
        for what, xs in (("commands", self.commands), ("thrust", self.thrusts),
                         ("power", self.powers)):
            bad = [i for i in range(1, n) if xs[i] <= xs[i - 1]]
            if bad:
                raise RotorTableError(f"{what} not strictly increasing at rows {bad}")
        object.__setattr__(self, "_thrust_slopes", _slopes(self.commands, self.thrusts))
        object.__setattr__(self, "_power_slopes", _slopes(self.thrusts, self.powers))
        object.__setattr__(self, "_command_slopes", _slopes(self.thrusts, self.commands))
        object.__setattr__(self, "_saturation", self.thrusts[-1] * (1 + 1e-12))

    @property
    def max_thrust(self) -> float:
        """Thrust at full command, N."""
        return self.thrusts[-1]

    def thrust_at(self, command: float) -> float:
        """Interpolated thrust (N) for a normalized command in [0, 1]."""
        if not 0.0 <= command <= 1.0:
            raise ValueError(f"command {command} outside [0, 1]")
        return interp(command, self.commands, self.thrusts, self._thrust_slopes)

    def power_at_thrust(self, thrust: float) -> float:
        """Interpolated electrical power (W) to produce `thrust` newtons."""
        if thrust < 0:
            raise ValueError(f"thrust {thrust} must be >= 0")
        if thrust > self._saturation:
            raise ThrustSaturationError(
                f"thrust {thrust:.3f} N exceeds max {self.max_thrust:.3f} N"
            )
        return interp(thrust, self.thrusts, self.powers, self._power_slopes)

    def realise(self, thrust: float) -> tuple[float, float]:
        """(command, realised thrust N) for a demanded thrust: the inverse
        of `thrust_at` (monotone curves make it well-defined), then
        `thrust_at` of that command, each raising on a value out of range."""
        # the checks and both `interp` lookups inline: a call costs a fifth
        # of a lookup
        if thrust < 0:
            raise ValueError(f"thrust {thrust} must be >= 0")
        if thrust > self._saturation:
            raise ThrustSaturationError(
                f"thrust {thrust:.3f} N exceeds max {self.max_thrust:.3f} N"
            )
        thrusts, commands = self.thrusts, self.commands
        last = len(thrusts) - 1
        if thrust <= thrusts[0]:
            command = commands[0]
        elif thrust >= thrusts[last]:
            command = commands[last]
        else:
            j = bisect_right(thrusts, thrust, 1, last) - 1
            x0 = thrusts[j]
            command = commands[j] if x0 == thrust else \
                self._command_slopes[j] * (thrust - x0) + commands[j]
        if not 0.0 <= command <= 1.0:
            raise ValueError(f"command {command} outside [0, 1]")
        if command <= commands[0]:
            return command, thrusts[0]
        if command >= commands[last]:
            return command, thrusts[last]
        j = bisect_right(commands, command, 1, last) - 1
        x0 = commands[j]
        if x0 == command:
            return command, thrusts[j]
        return command, self._thrust_slopes[j] * (command - x0) + thrusts[j]


def _slopes(xs: tuple[float, ...], ys: tuple[float, ...]) -> tuple[float, ...]:
    """The slope of each segment of the piecewise-linear map xs -> ys."""
    return tuple((ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1))


def interp(x: float, xs: tuple[float, ...], ys: tuple[float, ...],
            slopes: tuple[float, ...]) -> float:
    """Piecewise-linear lookup, clamped at both ends; xs strictly increasing,
    slopes = `_slopes(xs, ys)`.

    Repeats numpy.interp's scalar arithmetic so results match it bit for bit.
    """
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    j = bisect_right(xs, x, 1, len(xs) - 1) - 1
    x0 = xs[j]
    if x0 == x:
        return ys[j]
    return slopes[j] * (x - x0) + ys[j]


def _csv_rows(text: str, header: str, error: type):
    """(line number, cells) of each data row of a CSV text, blank lines and
    lines starting with ``#`` skipped; the first other line must be header.
    A wrong header or column count raises error naming the line."""
    names, header_seen = header.split(","), False
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if not header_seen:
            if [c.lower() for c in cells] != names:
                raise error(f"line {lineno}: expected header {header!r}, got {line!r}")
            header_seen = True
        elif len(cells) != len(names):
            raise error(f"line {lineno}: expected {len(names)} columns, got {len(cells)}")
        else:
            yield lineno, cells
    if not header_seen:
        raise error("empty table: missing header")


def load_rotor_table(table_source: str, name: str = "rotor") -> RotorModel:
    """Parse a performance table into a RotorModel.

    Expected CSV layout: header ``command,thrust_n,power_w``, lines starting
    with ``#`` ignored. Raises RotorTableError with the offending line number
    on malformed rows and names offending rows on non-monotone data.
    """
    commands, thrusts, powers = [], [], []
    for lineno, cells in _csv_rows(table_source, "command,thrust_n,power_w", RotorTableError):
        try:
            c, t, p = map(float, cells)
        except ValueError as exc:
            raise RotorTableError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, (c, t, p))):
            raise RotorTableError(f"line {lineno}: non-finite value in {','.join(cells)!r}")
        if not 0.0 <= c <= 1.0:
            raise RotorTableError(f"line {lineno}: command {c} outside [0, 1]")
        if commands and (c <= commands[-1] or t <= thrusts[-1] or p <= powers[-1]):
            raise RotorTableError(
                f"line {lineno}: table must be strictly increasing in every column"
            )
        commands.append(c)
        thrusts.append(t)
        powers.append(p)
    if len(commands) < 2:
        raise RotorTableError(f"need at least 2 data rows, got {len(commands)}")
    return RotorModel(tuple(commands), tuple(thrusts), tuple(powers), name=name)


def load_rotor_table_file(path, name: str | None = None) -> RotorModel:
    """load_rotor_table on the file at path; errors are prefixed with path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return load_rotor_table(text, name=name or os.path.splitext(os.path.basename(path))[0])
    except RotorTableError as exc:
        raise RotorTableError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class MassComponent:
    name: str
    mass_kg: float
    category: str

    def __post_init__(self):
        if self.category not in MASS_CATEGORIES:
            raise ValueError(f"unknown mass category {self.category!r}")
        if not self.mass_kg >= 0:  # NaN included
            raise ValueError(f"component {self.name}: mass must be >= 0")


@dataclass(frozen=True)
class MassBudget:
    """Component-level mass breakdown; categories must sum to empty mass."""

    components: tuple[MassComponent, ...]

    def category_total(self, category: str) -> float:
        if category not in MASS_CATEGORIES:
            raise ValueError(f"unknown mass category {category!r}")
        return sum(c.mass_kg for c in self.components if c.category == category)

    @property
    def empty_mass(self) -> float:
        """Sum of everything that is not payload."""
        return sum(c.mass_kg for c in self.components if c.category != "payload")

    @property
    def gam_mass(self) -> float:
        return self.category_total("gam")

    def validate_against(self, params: VehicleParams, tol: float = 1e-9) -> None:
        if abs(self.empty_mass - params.empty_mass) > tol:
            raise ValueError(
                f"budget sums to {self.empty_mass!r} kg, params declare "
                f"{params.empty_mass!r} kg empty mass"
            )


def load_mass_budget(csv_text: str) -> MassBudget:
    """Parse a ``name,mass_kg,category`` CSV (``#`` comments allowed)."""
    components = []
    for lineno, (name, mass, category) in _csv_rows(csv_text, "name,mass_kg,category",
                                                     ValueError):
        try:
            components.append(MassComponent(name, float(mass), category))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not components:
        raise ValueError("empty mass budget")
    return MassBudget(tuple(components))


@dataclass(frozen=True)
class DesignMetrics:
    tw_ratio: float
    payload_capacity: float  # kg
    gam_mass_fraction: float
    hover_power_estimate: float  # W
    hover_endurance_estimate: float  # s


def design_metrics(
    params: VehicleParams,
    rotor: RotorModel,
    usable_energy_wh: float,
    gam_mass_kg: float | None = None,
) -> DesignMetrics:
    """Headline sizing numbers for a four-rotor build.

    tw_ratio is total maximum thrust over MTOM weight; hover power comes from
    the rotor curve at the per-rotor hover thrust; endurance is usable energy
    over hover power. gam_mass_kg defaults to the bundled budget's total.
    """
    if not 0.0 < usable_energy_wh < math.inf:
        raise ValueError("usable_energy_wh must be finite and > 0")
    if gam_mass_kg is None:
        from .defaults import default_mass_budget

        gam_mass_kg = default_mass_budget().gam_mass
    tw = 4.0 * rotor.max_thrust / (params.mtom * params.gravity)
    hover_thrust_per_rotor = params.mtom * params.gravity / 4.0
    hover_power = 4.0 * rotor.power_at_thrust(hover_thrust_per_rotor)
    endurance = usable_energy_wh * 3600.0 / hover_power if hover_power > 0 else math.inf
    fraction = gam_mass_kg / params.mtom
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"GAM mass fraction {fraction} outside (0, 1)")
    return DesignMetrics(
        tw_ratio=tw,
        payload_capacity=params.mtom - params.empty_mass,
        gam_mass_fraction=fraction,
        hover_power_estimate=hover_power,
        hover_endurance_estimate=endurance,
    )

