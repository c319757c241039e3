"""Actors, scripts, and the three test-case scenario builders.

The world frame matches the ego's initial view: the road runs along +y and
the ego never steers, so its heading stays pi/2 throughout. Pedestrians
cross from the right shoulder (+x) toward -x.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace


def is_finite_number(value) -> bool:
    """True for a number that converts to a finite float; an int such as 10**400 overflows and does not."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


@dataclass(slots=True)
class ActorState:
    """Pose, speed, and footprint of one actor in the world frame."""

    name: str
    kind: str  # "ego" | "vehicle" | "pedestrian"
    x: float
    y: float
    heading: float
    speed: float
    length: float
    width: float

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be >= 0")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("footprint must be positive")


@dataclass(slots=True)
class PolicyConfig:
    """Longitudinal controller constants (see policy.driving_policy)."""

    comfort_accel: float = 1.5  # m/s^2, also comfortable deceleration
    max_decel: float = 6.0  # m/s^2
    corridor_half_width_m: float = 1.5
    headway_s: float = 1.5
    standstill_m: float = 2.0

    def __post_init__(self):
        for name in ("comfort_accel", "max_decel"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not (0 < self.comfort_accel <= self.max_decel):
            raise ValueError("need 0 < comfort_accel <= max_decel")
        # A negative corridor or headway would silently disable braking.
        for name in ("corridor_half_width_m", "headway_s", "standstill_m"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")

    def to_dict(self) -> dict:
        return {
            "comfort_accel": self.comfort_accel,
            "max_decel": self.max_decel,
            "corridor_half_width_m": self.corridor_half_width_m,
            "headway_s": self.headway_s,
            "standstill_m": self.standstill_m,
        }


class PedestrianCrossing:
    """Waits at the shoulder, then walks across the road at a fixed speed.

    Two trigger modes: "gap" starts the walk when the ego comes within
    trigger_gap_m longitudinally; "predicted" starts it when the ego's
    predicted arrival time (at its current speed) has shrunk to the time the
    pedestrian needs to traverse and just exit the collision corridor, i.e.
    the latest start that still collides with a non-reacting ego.
    """

    # Path half-width that produces ego/pedestrian overlap, minus a bias that
    # centers the unreacting impact inside the crossing window.
    EXIT_OFFSET_M = 0.75

    def __init__(self, walk_speed: float = 1.0, trigger: str = "gap", trigger_gap_m: float = 47.5):
        if trigger not in ("gap", "predicted"):
            raise ValueError(f"unknown trigger {trigger!r}")
        self.walk_speed = walk_speed
        self.trigger = trigger
        self.trigger_gap_m = trigger_gap_m
        self.started = False

    def step(self, actor: ActorState, ego: ActorState, t: float, dt: float) -> None:
        if not self.started:
            gap = actor.y - ego.y
            if self.trigger == "gap":
                self.started = gap <= self.trigger_gap_m
            else:
                time_to_exit = (actor.x + self.EXIT_OFFSET_M) / self.walk_speed
                self.started = gap / max(ego.speed, 0.5) <= time_to_exit
            if self.started:
                actor.heading = math.pi  # cross toward -x
                actor.speed = self.walk_speed
        elif actor.x <= -6.0:
            actor.speed = 0.0  # cleared the road


class LeadVehicle:
    """Drives at a constant speed along +y, then brakes to stop at a line."""

    def __init__(self, cruise_speed: float = 7.0, stop_y: float = 560.0, decel: float = 2.0):
        self.cruise_speed = cruise_speed
        self.stop_y = stop_y
        self.decel = decel

    def step(self, actor: ActorState, ego: ActorState, t: float, dt: float) -> None:
        brake_start = self.stop_y - self.cruise_speed**2 / (2.0 * self.decel)
        if actor.y >= brake_start:
            actor.speed = max(0.0, actor.speed - self.decel * dt)
        else:
            actor.speed = self.cruise_speed


@dataclass(slots=True)
class ScenarioSpec:
    """One parameterized test case: ego targets, scripted actors, and rates."""

    scenario_id: str
    road_length_m: float
    ego_init_speed: float
    ego_cruise_speed: float
    actors: list[tuple[ActorState, object]]  # (initial state, script)
    duration_s: float
    tick_rate_hz: int = 10
    perception_rate_hz: int = 2
    ego_length: float = 4.5
    ego_width: float = 1.8

    def __post_init__(self):
        for name in ("tick_rate_hz", "perception_rate_hz"):
            rate = getattr(self, name)
            if type(rate) is not int or rate < 1:
                raise ValueError(f"{name} must be a positive integer, got {rate!r}")
        if self.tick_rate_hz % self.perception_rate_hz != 0:
            raise ValueError("perception rate must divide tick rate")
        # A run of no ticks has no min distance: its report would hold Infinity.
        n_ticks = self.duration_s * self.tick_rate_hz
        if not (is_finite_number(n_ticks) and round(n_ticks) >= 1):
            raise ValueError(f"duration_s must last a finite number of ticks, at least one, got {self.duration_s!r}")

    def initial_ego(self) -> ActorState:
        return ActorState(
            "ego", "ego", 0.0, 0.0, math.pi / 2, self.ego_init_speed, self.ego_length, self.ego_width
        )

    def fresh_actors(self) -> list[tuple[ActorState, object]]:
        """Copies of the initial actor states paired with fresh script instances."""
        out = []
        for state, script in self.actors:
            out.append((replace(state), _clone_script(script)))
        return out


def _clone_script(script):
    if isinstance(script, PedestrianCrossing):
        return PedestrianCrossing(script.walk_speed, script.trigger, script.trigger_gap_m)
    if isinstance(script, LeadVehicle):
        return LeadVehicle(script.cruise_speed, script.stop_y, script.decel)
    raise TypeError(f"unknown script type {type(script).__name__}")


def _pedestrian(
    y: float, trigger: str, trigger_gap_m: float = 47.5, walk_speed: float = 1.0
) -> tuple[ActorState, PedestrianCrossing]:
    # Start x is deliberately off the 0.1 m per-tick lattice so the crossing
    # never puts the pedestrian exactly on the corridor boundary at a tick.
    state = ActorState("pedestrian", "pedestrian", 4.03, y, math.pi, 0.0, 0.5, 0.5)
    return state, PedestrianCrossing(walk_speed=walk_speed, trigger=trigger, trigger_gap_m=trigger_gap_m)


def _lead(y: float, speed: float, stop_line_y: float) -> tuple[ActorState, LeadVehicle]:
    state = ActorState("lead", "vehicle", 0.0, y, math.pi / 2, speed, 4.5, 1.8)
    return state, LeadVehicle(cruise_speed=speed, stop_y=stop_line_y, decel=2.0)


def make_tc1(
    cruise_speed: float = 10.0,
    pedestrian_y: float = 440.0,
    trigger_gap_m: float = 47.5,
    walk_speed: float = 1.0,
    road_length_m: float = 500.0,
    duration_s: float = 80.0,
) -> ScenarioSpec:
    """Straight road; a pedestrian jaywalks in front after roughly 400 m.

    The crossing is timed so a non-braking ego at cruise speed hits the
    pedestrian mid-crossing, while a braking ego has about 22 m of corridor
    warning and stops comfortably.
    """
    return ScenarioSpec(
        scenario_id="TC1",
        road_length_m=road_length_m,
        ego_init_speed=cruise_speed,
        ego_cruise_speed=cruise_speed,
        actors=[_pedestrian(pedestrian_y, "gap", trigger_gap_m, walk_speed)],
        duration_s=duration_s,
    )


def make_tc2(
    cruise_speed: float = 10.0,
    lead_start_y: float = 50.0,
    lead_speed: float = 7.0,
    stop_line_y: float = 560.0,
    road_length_m: float = 600.0,
    duration_s: float = 90.0,
) -> ScenarioSpec:
    """Follow a 7 m/s lead vehicle for about 500 m up to a traffic light."""
    return ScenarioSpec(
        scenario_id="TC2",
        road_length_m=road_length_m,
        ego_init_speed=cruise_speed,
        ego_cruise_speed=cruise_speed,
        actors=[_lead(lead_start_y, lead_speed, stop_line_y)],
        duration_s=duration_s,
    )


def make_tc3(
    cruise_speed: float = 10.0,
    lead_start_y: float = 50.0,
    lead_speed: float = 7.0,
    stop_line_y: float = 560.0,
    pedestrian_y: float = 300.0,
    walk_speed: float = 1.0,
    road_length_m: float = 600.0,
    duration_s: float = 90.0,
) -> ScenarioSpec:
    """TC2's lead vehicle plus a pedestrian that starts walking only when a
    collision with the (possibly slowed) ego is predicted; the lead can hide
    the pedestrian from view while passing it."""
    return ScenarioSpec(
        scenario_id="TC3",
        road_length_m=road_length_m,
        ego_init_speed=cruise_speed,
        ego_cruise_speed=cruise_speed,
        actors=[
            _lead(lead_start_y, lead_speed, stop_line_y),
            _pedestrian(pedestrian_y, "predicted", walk_speed=walk_speed),
        ],
        duration_s=duration_s,
    )


_BUILDERS = {"TC1": make_tc1, "TC2": make_tc2, "TC3": make_tc3}


def make_scenario(scenario_id: str) -> ScenarioSpec:
    try:
        return _BUILDERS[scenario_id.upper()]()
    except KeyError:
        raise ValueError(f"unknown scenario {scenario_id!r}; pick one of {sorted(_BUILDERS)}")


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    """Build a test case from a config document: {"id": "TC1", **overrides}.

    Override keys are the corresponding builder's keyword arguments, each a
    finite number, plus tick_rate_hz / perception_rate_hz.
    """
    if not isinstance(doc, dict) or "id" not in doc:
        raise ValueError('scenario config must be an object with an "id" field')
    scenario_id = str(doc["id"]).upper()
    if scenario_id not in _BUILDERS:
        raise ValueError(f"unknown scenario {scenario_id!r}; pick one of {sorted(_BUILDERS)}")
    builder = _BUILDERS[scenario_id]
    rates = {k: doc[k] for k in ("tick_rate_hz", "perception_rate_hz") if k in doc}
    kwargs = {k: v for k, v in doc.items() if k not in ("id", "tick_rate_hz", "perception_rate_hz")}
    allowed = set(inspect.signature(builder).parameters)
    unknown = set(kwargs) - allowed
    if unknown:
        raise ValueError(f"unknown scenario options for {scenario_id}: {sorted(unknown)}")
    for key, value in kwargs.items():
        if type(value) not in (int, float) or not is_finite_number(value):
            raise ValueError(f"scenario option {key} must be a finite number, got {value!r}")
    spec = builder(**kwargs)
    return replace(spec, **rates) if rates else spec
