"""Bundled calibrated defaults: vehicle geometry, rotor table, mass budget,
battery complement, and the power-model constants behind the headline
performance figures.

All numeric anchors live here (or in the two CSV files next to this module)
so experiment scripts and tests share one source of truth.
"""

from __future__ import annotations

from importlib import resources

from .energy import (
    ELECTRONICS,
    PROPULSION_A,
    PROPULSION_B,
    Battery,
    PowerModel,
)
from .vehicle import (
    MassBudget,
    RotorModel,
    VehicleParams,
    load_mass_budget,
    load_rotor_table,
)

# Ground power P(v) = c1 v + c3 v^3, anchored at (1.0 m/s, 29.8 W) and
# (4.1 m/s, 171.4 W). c3 is written as a difference so P(1.0) reproduces the
# anchor bit-exactly. The loaded curve keeps the same shape, re-anchored at
# (1.0 m/s, 58.6 W).
GROUND_C1_UNLOADED = 29.0406781752827
GROUND_C3_UNLOADED = 29.8 - GROUND_C1_UNLOADED
GROUND_C1_LOADED = GROUND_C1_UNLOADED * (58.6 / 29.8)
GROUND_C3_LOADED = 58.6 - GROUND_C1_LOADED
LOADED_PAYLOAD_KG = 2.0

GROUND_CALIBRATION_POINTS = {
    0.0: ((1.0, 29.8), (4.1, 171.4)),
    LOADED_PAYLOAD_KG: ((1.0, 58.6), (4.1, 171.4 * 58.6 / 29.8)),
}

# Cruise electrical power, 28.8x and 25.5x the 1 m/s ground figures.
FLIGHT_POWER_W = {0.0: 858.24, LOADED_PAYLOAD_KG: 1494.3}
# Sized so the usable pack energy buys a 10 minute hover.
HOVER_POWER_W = 571.2
# Multiplier on the rotor-curve power while pressed against a wall; absorbs
# the wake recirculation losses the static force balance cannot see.
WALL_WAKE_FACTOR = 1.8
AVIONICS_POWER_W = 5.0

# Twin 4S 5 Ah packs hold 148 Wh nominal; 95.2 Wh of that is deliverable
# above the over-discharge floor.
NOMINAL_PACK_ENERGY_WH = 2 * 4 * 3.7 * 5.0
USABLE_PROPULSION_ENERGY_WH = 95.2
USABLE_FRACTION = USABLE_PROPULSION_ENERGY_WH / NOMINAL_PACK_ENERGY_WH

TRANSITION_TIME_S = 4.0
TRANSITION_ENERGY_WH = HOVER_POWER_W * TRANSITION_TIME_S / 3600.0


def _data_text(filename: str) -> str:
    return resources.files("flydrive.data").joinpath(filename).read_text("utf-8")


def default_params() -> VehicleParams:
    return VehicleParams()


def default_rotor() -> RotorModel:
    return load_rotor_table(_data_text("rotor_default.csv"), name="rotor_default")


def default_mass_budget() -> MassBudget:
    return load_mass_budget(_data_text("mass_budget_default.csv"))


def default_batteries() -> list[Battery]:
    """Two 4S propulsion packs plus the 2S electronics pack, all full."""
    return [
        Battery(PROPULSION_A, cells_series=4, capacity_ah=5.0,
                usable_fraction=USABLE_FRACTION),
        Battery(PROPULSION_B, cells_series=4, capacity_ah=5.0,
                usable_fraction=USABLE_FRACTION),
        Battery(ELECTRONICS, cells_series=2, capacity_ah=3.2,
                usable_fraction=0.8),
    ]


def default_power_model(
    params: VehicleParams | None = None,
    rotor: RotorModel | None = None,
) -> PowerModel:
    return PowerModel(
        params=params or default_params(),
        rotor=rotor or default_rotor(),
        ground_coeffs={
            0.0: (GROUND_C1_UNLOADED, GROUND_C3_UNLOADED),
            LOADED_PAYLOAD_KG: (GROUND_C1_LOADED, GROUND_C3_LOADED),
        },
        flight_power_w=dict(FLIGHT_POWER_W),
        hover_power_w=HOVER_POWER_W,
        wall_wake_factor=WALL_WAKE_FACTOR,
    )
