"""References for plan validation's leg loops, compared in repr by the
differential tests in test_planner.py.

`reference_drive_leg` is `planner._simulate_drive_leg` with each edge from a
fresh `SimState`, one full `step` and its `instantaneous_power` per
step until a step changes nothing but the time and the position
(`is_steady`), then only distance and energy add up: the loop plan
validation ran before it stepped edges through the step law over floats,
and then through `dynamics.speed_law`, the speed of each straight edge
alone, calling an edge steady once the speed it reads comes back, up to a
step sooner. Each full step also integrates the heading and the position,
and faults where either is not finite, so the comparison checks that
stepping the speed alone leaves neither out of any result or fault, and
that where the jumps begin moves no bit.
`reference_fly_leg` is `planner._simulate_fly_leg` with its clamps written
with the builtin `min` and `max`.
"""

from __future__ import annotations

import math
from dataclasses import replace

from flydrive import dynamics
from reference_simulator import instantaneous_power, is_steady, step


def along_track_speed(state, surface) -> float:
    """The speed along the track that a ground or incline step reads: along
    the slope on an incline, along the heading elsewhere."""
    vx, vy, vz = state.velocity
    if surface.kind == "incline":
        psi = math.radians(surface.slope_deg)
        return vx * math.cos(psi) + vz * math.sin(psi)
    yaw = dynamics.quaternion_yaw(state.quaternion)
    return vx * math.cos(yaw) + vy * math.sin(yaw)


def reference_drive_leg(leg, terrain, cfg, model, payload, dt_s):
    """`planner._simulate_drive_leg(leg, terrain, cfg, model, payload, dt_s)`
    with a full step for every step until an edge is steady."""
    params = model.params
    rotor = model.rotor
    energy = 0.0
    v = 0.0
    max_steps_per_edge = int(60.0 / dt_s)
    for a, b in zip(leg.cells, leg.cells[1:]):
        dh = terrain.elevation_at(b) - terrain.elevation_at(a)
        slope = math.degrees(math.atan2(abs(dh), terrain.cell_size_m))
        if slope == 0.0:
            surface = dynamics.SurfaceModel("flat")
            direction = (1.0, 0.0, 0.0)
        else:
            surface = dynamics.SurfaceModel("incline", slope_deg=slope)
            psi = math.radians(slope)
            direction = (math.cos(psi), 0.0, math.sin(psi))
        state = dynamics.initial_ground_state(params, surface)
        state = replace(state, velocity=tuple(v * d for d in direction))
        setpoint = dynamics.ControlSetpoint(mode=state.mode, speed_mps=cfg.drive_speed_mps)
        covered = 0.0
        steps = 0
        steady = False
        while covered < terrain.cell_size_m:
            if not steady:
                previous = state
                state = step(state, setpoint, surface, dt_s, params=params, rotor=rotor,
                             payload=payload)
                v = along_track_speed(state, surface)
                power = instantaneous_power(model, state, surface, payload)
                steady = is_steady(previous, state)
            covered += v * dt_s
            energy += power * dt_s / 3600.0
            steps += 1
            if steps > max_steps_per_edge:
                raise dynamics.SimulationFault("drive edge timed out")
    return energy


def reference_fly_leg(leg, terrain, cfg, model, payload, dt_s):
    """`planner._simulate_fly_leg(leg, terrain, cfg, model, payload, dt_s)`
    clamping with the builtin `min` and `max`."""
    kp, cap = dynamics.KP_POS, dynamics.MAX_FLIGHT_ACCEL_MPS2
    m = model.params.total_mass(payload)
    g = model.params.gravity
    cell = terrain.cell_size_m
    n_edges = len(leg.cells) - 1
    total_len = n_edges * cell
    rises = [
        terrain.elevation_at(b) - terrain.elevation_at(a)
        for a, b in zip(leg.cells, leg.cells[1:])
    ]
    v = 0.0
    s = 0.0
    energy = 0.0
    steps = 0
    max_steps = int(120.0 / dt_s)
    p_cruise = model.flight_power(payload)
    while s < total_len:
        accel = kp * (cfg.fly_speed_mps - v)
        accel = max(-cap, min(cap, accel))
        v += accel * dt_s
        s += v * dt_s
        edge = min(int(s / cell), n_edges - 1)
        vz = v * rises[edge] / cell
        power = p_cruise + m * g * max(0.0, vz)
        energy += power * dt_s / 3600.0
        steps += 1
        if steps > max_steps:
            raise dynamics.SimulationFault("fly leg timed out")
    return energy
