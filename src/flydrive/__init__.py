"""flydrive: simulation and analysis toolkit for a four-wheeled tilt-axle
vehicle that drives, climbs inclines and walls, and flies.

The public surface groups into five layers:

- vehicle: physical parameters, rotor performance tables, mass budget
- statics: force decomposition, tipping, incline and wall feasibility
- energy: batteries, calibrated per-mode power, endurance and range
- dynamics + simulator: mode controllers, scripted runs, traces
- terrain + planner: grid worlds and least-energy multi-modal routing

`__all__` is the library API; other module-level names may change.
"""

from .defaults import (
    default_batteries,
    default_mass_budget,
    default_params,
    default_power_model,
    default_rotor,
)
from .dynamics import (
    ControlSetpoint,
    DetachEvent,
    Mode,
    SimState,
    SimulationFault,
    SurfaceModel,
    TipEvent,
    initial_flight_state,
    initial_ground_state,
    initial_wall_state,
    mode_transition,
)
from .energy import (
    Battery,
    EnergyLedger,
    PowerModel,
    calibrate_ground_power,
    endurance_ratio,
    mode_power,
    range_estimate,
    usable_propulsion_energy_wh,
)
from .planner import (
    MissionLeg,
    MissionPlan,
    NoPathError,
    PlannerConfig,
    classify_traversability,
    plan,
    validate_plan,
)
from .scenario import Scenario, ScenarioError, load_scenario, run_scenario
from .simulator import ScriptEvent, SimResult, Simulator
from .statics import (
    InfeasibleTiltError,
    conventional_pitch_for_slope,
    decompose_thrust,
    incline_equilibrium,
    optimal_wall_tilt,
    tipping_slope,
    wall_climb_analysis,
)
from .terrain import TerrainGrid, load_terrain_file, terrain_from_ascii
from .vehicle import (
    MassBudget,
    RotorModel,
    VehicleParams,
    design_metrics,
    load_rotor_table,
    load_rotor_table_file,
)

__version__ = "0.1.0"

__all__ = [
    "Battery",
    "ControlSetpoint",
    "DetachEvent",
    "EnergyLedger",
    "InfeasibleTiltError",
    "MassBudget",
    "MissionLeg",
    "MissionPlan",
    "Mode",
    "NoPathError",
    "PlannerConfig",
    "PowerModel",
    "RotorModel",
    "Scenario",
    "ScenarioError",
    "ScriptEvent",
    "SimResult",
    "SimState",
    "SimulationFault",
    "Simulator",
    "SurfaceModel",
    "TerrainGrid",
    "TipEvent",
    "VehicleParams",
    "calibrate_ground_power",
    "classify_traversability",
    "conventional_pitch_for_slope",
    "decompose_thrust",
    "default_batteries",
    "default_mass_budget",
    "default_params",
    "default_power_model",
    "default_rotor",
    "design_metrics",
    "endurance_ratio",
    "incline_equilibrium",
    "initial_flight_state",
    "initial_ground_state",
    "initial_wall_state",
    "load_rotor_table",
    "load_rotor_table_file",
    "load_scenario",
    "load_terrain_file",
    "mode_power",
    "mode_transition",
    "optimal_wall_tilt",
    "plan",
    "range_estimate",
    "run_scenario",
    "terrain_from_ascii",
    "tipping_slope",
    "usable_propulsion_energy_wh",
    "validate_plan",
    "wall_climb_analysis",
]
