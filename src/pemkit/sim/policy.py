"""Longitudinal driving policy: corridor gating plus a headway braking law.

The policy has two steps. ``obstacle_gap`` reads a perceived frame and gives
the gap to the nearest obstacle ahead in the corridor, so it runs once per
perception frame. ``gap_command`` turns that gap and the ego's current speed
into a command, so it runs every tick. ``driving_policy`` is the two composed.
"""

from __future__ import annotations

from .world import ActorState, PolicyConfig

# Perceived objects carry no extent, so the planner inflates every obstacle by
# a worst-case half length when converting a center offset into a gap.
OBSTACLE_INFLATION_M = 2.25


def driving_policy(perceived: list[tuple[int, float, float]], ego: ActorState, cfg: PolicyConfig) -> float:
    """Commanded longitudinal acceleration (m/s^2, negative = braking).

    Of the (source_id, x, y) a perception source returned, the nearest ahead
    (y > 0) within the reaction corridor sets the gap. Commanded deceleration
    ramps linearly from 0 at gap = v * headway + standstill up to max_decel at
    the max-brake stopping distance (v^2 / (2 * max_decel) + standstill); with
    no relevant obstacle the command is comfort_accel toward cruise (the
    integrator caps speed at the scenario's cruise target). Fully deterministic.
    """
    return gap_command(obstacle_gap(perceived, ego, cfg), ego.speed, cfg)


def obstacle_gap(perceived: list[tuple[int, float, float]], ego: ActorState, cfg: PolicyConfig) -> float | None:
    """Gap from the ego's front to the nearest perceived obstacle ahead in the corridor, or None."""
    nearest = None
    for _sid, x, y in perceived:
        if abs(x) <= cfg.corridor_half_width_m and y > 0.0 and (nearest is None or y < nearest):
            nearest = y
    if nearest is None:
        return None
    return nearest - 0.5 * ego.length - OBSTACLE_INFLATION_M


def gap_command(gap: float | None, speed: float, cfg: PolicyConfig) -> float:
    """The command for an ``obstacle_gap`` at the ego's current speed."""
    if gap is None:
        return cfg.comfort_accel
    d_brake_full = speed * speed / (2.0 * cfg.max_decel) + cfg.standstill_m
    d_brake_start = speed * cfg.headway_s + cfg.standstill_m
    if gap <= d_brake_full:
        return -cfg.max_decel
    if gap <= d_brake_start:
        return -cfg.max_decel * (d_brake_start - gap) / (d_brake_start - d_brake_full)
    return cfg.comfort_accel
