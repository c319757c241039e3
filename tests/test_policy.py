import math

import pytest

from pemkit.sim import ActorState, PolicyConfig, driving_policy
from pemkit.sim.policy import OBSTACLE_INFLATION_M

CFG = PolicyConfig()


def ego(speed=10.0):
    return ActorState("ego", "ego", 0.0, 0.0, math.pi / 2, speed, 4.5, 1.8)


def perceived_at(x, y, sid=1):
    return (sid, x, y)


def gap_to_offset(gap, e=None):
    """Longitudinal center offset that yields the given policy gap."""
    e = e or ego()
    return gap + 0.5 * e.length + OBSTACLE_INFLATION_M


def test_empty_world_accelerates():
    assert driving_policy([], ego(speed=5.0), CFG) == CFG.comfort_accel


def test_object_dead_ahead_at_one_meter_brakes_fully():
    assert driving_policy([perceived_at(0.0, 1.0)], ego(speed=8.0), CFG) == -CFG.max_decel


def test_boundary_gap_commands_zero():
    e = ego(speed=10.0)
    boundary = e.speed * CFG.headway_s + CFG.standstill_m
    cmd = driving_policy([perceived_at(0.0, gap_to_offset(boundary, e))], e, CFG)
    assert cmd == 0.0


def test_far_object_keeps_cruising():
    e = ego(speed=10.0)
    cmd = driving_policy([perceived_at(0.0, gap_to_offset(50.0, e))], e, CFG)
    assert cmd == CFG.comfort_accel


def test_full_braking_inside_stopping_distance():
    e = ego(speed=10.0)
    d_lo = e.speed**2 / (2 * CFG.max_decel) + CFG.standstill_m
    cmd = driving_policy([perceived_at(0.0, gap_to_offset(d_lo - 0.01, e))], e, CFG)
    assert cmd == -CFG.max_decel


def test_deceleration_monotone_in_gap():
    e = ego(speed=10.0)
    gaps = [1.0 + 0.25 * k for k in range(100)]
    cmds = [driving_policy([perceived_at(0.0, gap_to_offset(g, e))], e, CFG) for g in gaps]
    for a, b in zip(cmds, cmds[1:]):
        assert b >= a  # deceleration never increases with distance
    assert cmds[0] == -CFG.max_decel
    assert cmds[-1] == CFG.comfort_accel


def test_corridor_gating():
    e = ego(speed=10.0)
    inside = perceived_at(CFG.corridor_half_width_m, 10.0)
    outside = perceived_at(CFG.corridor_half_width_m + 0.2, 10.0)
    assert driving_policy([inside], e, CFG) == -CFG.max_decel
    assert driving_policy([outside], e, CFG) == CFG.comfort_accel


def test_objects_behind_are_ignored():
    e = ego(speed=10.0)
    assert driving_policy([perceived_at(0.0, -5.0)], e, CFG) == CFG.comfort_accel


def test_nearest_object_governs():
    e = ego(speed=10.0)
    near = perceived_at(0.0, gap_to_offset(3.0, e), sid=1)
    far = perceived_at(0.0, gap_to_offset(60.0, e), sid=2)
    assert driving_policy([far, near], e, CFG) == -CFG.max_decel


def test_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(comfort_accel=7.0, max_decel=6.0)
    with pytest.raises(ValueError):
        PolicyConfig(comfort_accel=0.0)
